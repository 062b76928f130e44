"""Tests for the frontrunning experiment (Section II-F / V-B)."""

import pytest

from repro.adversary.strategies import VICTIM_BUY_LABEL
from repro.api import ExperimentOptions, run_experiment
from repro.clients.market import READ_COMMITTED, READ_UNCOMMITTED


def frontrunning(seed, num_victim_buys):
    """One run per victim read mode, keyed by the mode."""
    run = run_experiment(
        "frontrunning",
        ExperimentOptions(seed=seed, overrides={"num_victim_buys": num_victim_buys}),
    )
    return {row["victim_read_mode"]: row for row in run.frame}


@pytest.fixture(scope="module")
def results():
    """Run the experiment once per victim read mode (small scale) and share."""
    rows = frontrunning(seed=3, num_victim_buys=20)
    return rows[READ_UNCOMMITTED], rows[READ_COMMITTED]


def victim(row):
    return row["summary"]["reports"][VICTIM_BUY_LABEL]


class TestFrontrunningProtection:
    def test_no_victim_ever_pays_unobserved_terms(self, results):
        """The structural claim: mark-bound offers cannot be filled at terms the
        victim did not observe, no matter what the attacker does."""
        for row in results:
            assert row["overpaid"] == 0
            assert row["audit_clean"]

    def test_attacker_actually_attacked(self, results):
        for row in results:
            assert row["attacks_launched"] > 0

    def test_every_outcome_is_accounted_for(self, results):
        for row in results:
            report = victim(row)
            filled = report["successful"]
            rejected = report["committed"] - report["successful"]
            assert filled + rejected <= report["submitted"] == 20

    def test_hms_victim_fills_more_orders_than_committed_victim(self, results):
        hms_victim, committed_victim = results
        assert hms_victim["eta"] > committed_victim["eta"]

    def test_seed_reproducibility(self):
        first = frontrunning(seed=9, num_victim_buys=10)
        second = frontrunning(seed=9, num_victim_buys=10)
        for mode in (READ_COMMITTED, READ_UNCOMMITTED):
            assert first[mode]["eta"] == second[mode]["eta"]
            assert first[mode]["attacks_launched"] == second[mode]["attacks_launched"]
