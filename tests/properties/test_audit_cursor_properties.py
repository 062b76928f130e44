"""The audit a chain keeps as it imports equals a replay of the finished chain.

``victim_market`` attaches an :class:`~repro.core.audit.AuditCursor` to the
reference chain, which feeds it every block it appends; ``finalize`` reads
its report and replays nothing.  ``tests.oracles.audit_chain`` replays the
whole finished chain from genesis: the oracle.  On generated markets
(scenarios, adversaries, moving prices, seeds) the cursor's report equals
the replay's field for field, and the cursor of the same run under a
retention window, whose chain can no longer be replayed, equals a replay of
its unretained twin's blocks.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Simulation, build_simulation
from repro.chain.errors import PrunedHistoryError
from repro.contracts.sereth import BUY_SELECTOR, SET_SELECTOR, initial_mark
from repro.core.audit import AuditCursor, ChainAuditor

from ..oracles import audit_chain


def auditor(handle) -> ChainAuditor:
    contract = handle.workload.contract
    return ChainAuditor(
        contract_address=contract,
        set_selector=SET_SELECTOR,
        buy_selector=BUY_SELECTOR,
        initial_mark=initial_mark(contract),
    )


def replayed_audit(handle):
    return audit_chain(auditor(handle), handle.reference_chain)


markets = st.fixed_dictionaries(
    {
        "scenario": st.sampled_from(["geth_unmodified", "sereth_client", "semantic_mining"]),
        "adversary": st.sampled_from([None, "displacement", "insertion", "suppression"]),
        # A run lasts about one fixed 13 s block per buy, so 13 or more
        # buys outrun every window drawn here: each retained twin prunes.
        "num_victim_buys": st.integers(13, 20),
        "buy_interval": st.sampled_from([13.0, 30.0]),
        "reprice_interval": st.sampled_from([None, 3.0, 11.0]),
        "retention": st.integers(8, 12),
        "seed": st.integers(0, 2**16),
    }
)


@settings(max_examples=20, deadline=None)
@given(market=markets)
def test_the_cursor_reports_what_a_replay_of_the_unretained_twin_reports(market):
    builder = (
        Simulation.builder()
        .scenario(market["scenario"])
        .workload(
            "victim_market",
            num_victim_buys=market["num_victim_buys"],
            buy_interval=market["buy_interval"],
            reprice_interval=market["reprice_interval"],
        )
        .block_interval(13.0, fixed=True)
        .seed(market["seed"])
    )
    if market["adversary"] is not None:
        builder = builder.adversary(market["adversary"])
    spec = builder.build()

    unretained = build_simulation(spec)
    summary = unretained.run().summary()
    replay = replayed_audit(unretained)
    assert unretained.workload.audit.report == replay
    assert replay.blocks_audited == unretained.reference_chain.height
    assert summary["extras"]["audit_clean"] == replay.is_clean

    # A retained run resolves its metrics every block interval, so it can
    # stop a block or two sooner; up to its head it holds the same blocks.
    retained = build_simulation(replace(spec, retention=market["retention"]))
    retained.run()
    height = retained.reference_chain.height
    assert retained.reference_chain.earliest_block_number > 0
    assert retained.reference_chain.head.hash == unretained.reference_chain.block_by_number(height).hash
    prefix = AuditCursor(auditor(unretained))
    for number in range(1, height + 1):
        prefix.feed(unretained.reference_chain.block_by_number(number))
    assert retained.workload.audit.report == prefix.report


def test_the_retained_victim_market_finalizes_its_audit():
    """A retained run the replay cannot audit: its first blocks are pruned
    by the time it finalizes."""
    spec = (
        Simulation.builder()
        .scenario("semantic_mining")
        .workload("victim_market", num_victim_buys=40, buy_interval=30.0)
        .retention(8)
        .seed(1)
        .build()
    )
    handle = build_simulation(spec)
    result = handle.run()
    assert result.extras["audit_clean"] is True
    assert result.extras["overpaid"] == 0
    assert handle.workload.audit.report.blocks_audited == handle.reference_chain.height
    with pytest.raises(PrunedHistoryError):
        replayed_audit(handle)
