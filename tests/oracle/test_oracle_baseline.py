"""Tests for the RAA-vs-oracle comparison (the registered ``oracle`` experiment)."""

import pytest

from repro.api import ExperimentOptions, run_experiment


def comparison_row(seed, num_queries):
    run = run_experiment(
        "oracle", ExperimentOptions(seed=seed, overrides={"num_queries": num_queries})
    )
    assert len(run.frame) == 1
    return run.frame.row(0)


class TestOracleComparison:
    @pytest.fixture(scope="class")
    def comparison(self):
        return comparison_row(seed=2, num_queries=6)

    def test_every_query_gets_answered_eventually(self, comparison):
        assert comparison["oracle_unanswered"] == 0
        assert len(comparison["summary"]["extras"]["oracle_latencies"]) == 6

    def test_oracle_latency_requires_block_commits(self, comparison):
        """A request/response oracle cannot answer before the request commits
        and the answer commits in a later block.  With exponential block
        intervals a lucky query can be fast, but no answer can be usable
        before at least one further block, and on average the latency is on
        the order of the block interval."""
        block_interval = comparison["summary"]["spec"]["block_interval"]
        assert min(comparison["summary"]["extras"]["oracle_latencies"]) >= 1.0
        assert comparison["mean_oracle_latency"] >= block_interval * 0.5

    def test_raa_latency_is_effectively_zero(self, comparison):
        assert len(comparison["summary"]["extras"]["raa_latencies"]) == 6
        assert comparison["mean_raa_latency"] == pytest.approx(0.0, abs=1e-9)

    def test_raa_is_orders_of_magnitude_faster(self, comparison):
        assert comparison["mean_oracle_latency"] > 100.0 * max(comparison["mean_raa_latency"], 1e-3)

    def test_comparison_is_seed_deterministic(self):
        first = comparison_row(seed=9, num_queries=3)
        second = comparison_row(seed=9, num_queries=3)
        assert (
            first["summary"]["extras"]["oracle_latencies"]
            == second["summary"]["extras"]["oracle_latencies"]
        )
