"""Flood-gossip execution paths pinned at small scale.

``bench/``'s ``gossip_1k`` goldens run with tracing off, so they never reach
the tracer branches in ``Network._deliver_transaction`` / ``_deliver_block``.
This runs the same spec shape at N=100 — ``random_k``, bandwidth on, a
displacement adversary — and its faulty twin (drop / corrupt / delay /
duplicate / crash), once plain and once observed, against summary sha256s
recorded on the commit *before* the event core was slimmed (heap entries as
lists, closure-free deliveries, inlined ``random_k`` draws).  Observation
must not move the simulation: minus what it adds (the ``observability`` block
and the spec's ``observe`` flag) the observed summary is the plain one.
"""

import hashlib
import json

import pytest

from repro.api.builder import Simulation
from repro.api.engine import build_simulation

SEED = 20260807
VICTIM_BUYS = 8
BLOCK_INTERVAL = 13.0

# faulty -> (summary sha256, simulator events), recorded on the parent commit.
# The clean digest is also BENCH_topology.json's ``random_k_100`` checksum.
PINNED = {
    False: ("9c5d4848a1b6a44784dbf7203a21cdabccc752a9d5b5c90ce140a1aa9dada43e", 14520),
    True: ("586fb3f7bce748917e250a2d249172d2cfacd7bc3b73fa0edd7b7360a48bdaaf", 15248),
}


def gossip_spec(faulty: bool, observe: bool):
    builder = (
        Simulation.builder()
        .scenario("semantic_mining")
        .workload("victim_market", num_victim_buys=VICTIM_BUYS, buy_interval=2.0)
        .miners(2)
        .clients(100)
        .block_interval(BLOCK_INTERVAL)
        .gossip(0.07, 0.05)
        .gas(max_transactions_per_block=12)
        .topology("random_k")
        .bandwidth(1_250_000.0)
        .adversary("displacement")
        .seed(SEED)
    )
    if faulty:
        until = 5.0 + VICTIM_BUYS * 2.0 + BLOCK_INTERVAL
        builder = (
            builder.fault("drop", rate=0.08, target="block", until=until)
            .fault("corrupt", rate=0.08, target="block", until=until)
            .fault("duplicate", rate=0.08, target="tx", spread=0.5, until=until)
            .fault("delay", rate=0.16, target="block", extra=0.3, jitter=0.4, until=until)
            .fault("crash", peer="client-1", at=8.0, downtime=8.0)
        )
    if observe:
        builder = builder.observe()
    return builder.build()


def sha256_json(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("faulty", [False, True], ids=["clean", "faulty"])
@pytest.mark.parametrize("observe", [False, True], ids=["plain", "observed"])
def test_summary_matches_the_parent_commit(faulty, observe):
    handle = build_simulation(gossip_spec(faulty, observe))
    summary = handle.run().summary()
    if observe:
        observability = summary.pop("observability")
        assert summary["spec"].pop("observe") is True
        # The tracer branches on the delivery path did run.
        assert observability["event_counts"]["gossip.tx"] > 0
        assert observability["event_counts"]["gossip.block"] > 0
        assert observability["dropped_events"] == 0
    expected_sha, expected_events = PINNED[faulty]
    assert handle.simulator.events_processed == expected_events
    assert sha256_json(summary) == expected_sha
    if faulty:
        faults = summary["extras"]["faults"]
        assert faults["converged"] and faults["injections"] > 0
