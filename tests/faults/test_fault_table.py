"""The injector's per-kind fault table against the loop it replaced.

The oracle is the message seam as it was before the table: every message
fault is asked about every hop through ``decide``, which returns before it
touches the fault's RNG when the fault does not target the hop's kind or its
window does not cover the hop.  The table must give the same effects, the
same counters and leave every fault's RNG in the same state, hop by hop.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.faults import FaultInjector, build_fault

PEERS = ("miner-0", "client-0", "client-1")


def decide(fault, rng, now, message_kind):
    """One fault's verdict on one hop, as the fault decided it before the table."""
    applies = fault.target == "both" or fault.target == message_kind
    active = now >= fault.start and (fault.until is None or now < fault.until)
    if not applies or not active:
        return None
    if rng.random() >= fault.rate:
        return None
    return fault.effect(rng)


def oracle_on_message(injector, message_faults, message_kind, sender_id, receiver_id, now):
    """``FaultInjector.on_message`` before the table: every fault, every hop."""
    if now < injector.window_start or now >= injector.window_until:
        return None
    if message_kind == "block" and receiver_id in injector.protected_block_peers:
        return None
    effect = None
    for name, fault, rng in message_faults:
        decision = decide(fault, rng, now, message_kind)
        if decision is None:
            continue
        effect = decision if effect is None else effect.merge(decision)
        injector._record(now, name, fault.action, message_kind, sender_id, receiver_id)
    return effect


def construct(entries, seed):
    """``(name, fault, rng)`` triples seeded per entry, as ``from_spec`` does."""
    return [
        (name, build_fault(name, dict(params)), random.Random(f"{seed}/{index}/{name}"))
        for index, (name, params) in enumerate(entries)
    ]


@st.composite
def message_fault(draw):
    name = draw(st.sampled_from(["drop", "duplicate", "delay", "corrupt"]))
    params = {
        "rate": draw(st.sampled_from([0.05, 0.3, 0.5, 1.0])),
        "target": draw(st.sampled_from(["tx", "block", "both"])),
        "start": draw(st.sampled_from([0.0, 2.0, 5.0, 10.0])),
    }
    span = draw(st.sampled_from([None, 0.5, 3.0, 8.0, 20.0]))
    if span is not None:
        params["until"] = params["start"] + span
    if name == "duplicate":
        params["spread"] = draw(st.sampled_from([0.1, 0.5, 2.0]))
    if name == "delay":
        params["extra"] = draw(st.sampled_from([0.0, 0.25]))
        params["jitter"] = draw(st.sampled_from([0.5, 1.0]))
    return name, params


hops = st.lists(
    st.tuples(
        st.sampled_from(["tx", "block"]),
        st.floats(min_value=0.0, max_value=30.0),
        st.sampled_from(PEERS),
    ),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(
    entries=st.lists(message_fault(), min_size=1, max_size=4),
    hops=hops,
    protect=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_table_matches_every_fault_every_hop(entries, hops, protect, seed):
    table_faults = construct(entries, seed)
    oracle_faults = construct(entries, seed)
    table = FaultInjector(table_faults)
    oracle = FaultInjector(oracle_faults)
    if protect:
        table.protect_block_peers({"miner-0"})
        oracle.protect_block_peers({"miner-0"})
    for kind, now, receiver in hops:
        expected = oracle_on_message(oracle, oracle_faults, kind, "client-0", receiver, now)
        assert table.on_message(kind, "client-0", receiver, now) == expected
        assert table.counts == oracle.counts
        assert table.injections == oracle.injections
        assert [rng.getstate() for _, _, rng in table_faults] == [
            rng.getstate() for _, _, rng in oracle_faults
        ]


def test_block_hops_never_advance_a_tx_only_fault():
    faults = construct(
        [
            ("duplicate", {"rate": 1.0, "target": "tx"}),
            ("drop", {"rate": 0.5, "target": "block"}),
        ],
        seed=3,
    )
    injector = FaultInjector(faults)
    tx_rng, block_rng = faults[0][2], faults[1][2]
    tx_state, block_state = tx_rng.getstate(), block_rng.getstate()
    for index in range(100):
        injector.on_message("block", "client-0", "client-1", float(index))
    assert tx_rng.getstate() == tx_state
    assert block_rng.getstate() != block_state
    assert "duplicate" not in injector.counts
    assert injector.on_message("tx", "client-0", "client-1", 1.0).duplicate_gap is not None
