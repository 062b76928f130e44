"""End-to-end tests for the retention / streaming-metrics spec knobs."""

from dataclasses import replace

import pytest

from repro.api import Simulation, Sweep, run_simulation
from repro.workloads.steady_state import STEADY_LABEL
from repro.chain.errors import PrunedHistoryError


def steady_spec(retention=None, metrics_window=None, num_blocks=40, seed=7):
    builder = (
        Simulation.builder()
        .scenario("geth_unmodified")
        .workload("steady_state", num_blocks=num_blocks, blocks_per_set=4)
        .miners(1)
        .clients(1)
        .seed(seed)
    )
    if retention is not None:
        builder = builder.retention(retention)
    if metrics_window is not None:
        builder = builder.metrics_window(metrics_window)
    return replace(builder.build(), settle_blocks=3)


class TestSpecValidation:
    def test_builder_threads_the_knobs(self):
        spec = steady_spec(retention=16, metrics_window=50.0)
        assert spec.retention == 16
        assert spec.metrics_window == 50.0

    def test_retention_floor_names_the_constraint(self):
        with pytest.raises(ValueError, match="retention must be at least"):
            steady_spec(retention=2)

    def test_default_describe_has_no_retention_keys(self):
        """The committed golden checksums cover default describe() output, so
        the new knobs may only appear when set."""
        description = steady_spec().describe()
        assert "retention" not in description
        assert "metrics_window" not in description
        retained = steady_spec(retention=16, metrics_window=50.0).describe()
        assert retained["retention"] == 16
        assert retained["metrics_window"] == 50.0


class TestRetainedRun:
    @pytest.fixture(scope="class")
    def runs(self):
        retained = run_simulation(steady_spec(retention=8))
        unretained = run_simulation(steady_spec())
        return retained, unretained

    def test_chains_actually_pruned(self, runs):
        retained, _ = runs
        chain = retained.peers[0].chain
        assert chain.earliest_block_number > 0
        assert len(chain.blocks()) <= 8
        assert chain.anchor is not None

    def test_pruned_lookup_through_the_api_is_typed_and_helpful(self, runs):
        retained, _ = runs
        chain = retained.peers[0].chain
        with pytest.raises(PrunedHistoryError, match="was pruned") as exc_info:
            chain.block_by_number(0)
        assert "raise retain_blocks" in str(exc_info.value)

    def test_retention_changes_no_outcome(self, runs):
        """Same transactions, same success, same efficiency.  (The retained
        engine steps to block-interval boundaries, so the run may end up to
        one interval away from the unbounded run's end time; block-for-block
        chain identity is asserted in tests/chain/test_retention.py.)"""
        retained, unretained = runs
        assert retained.efficiency == unretained.efficiency == 1.0
        lhs, rhs = retained.report(), unretained.report()
        assert lhs.submitted == rhs.submitted
        assert lhs.committed == rhs.committed
        assert lhs.successful == rhs.successful
        assert abs(retained.blocks_produced - unretained.blocks_produced) <= 1

    def test_default_summary_has_no_streaming_keys(self, runs):
        _, unretained = runs
        summary = unretained.summary()
        assert "metrics_windows" not in summary
        assert "latency_p50" not in summary["reports"][STEADY_LABEL]


class TestStreamingRun:
    @pytest.fixture(scope="class")
    def result(self):
        return run_simulation(steady_spec(retention=8, metrics_window=50.0))

    def test_summary_gains_windowed_aggregates(self, result):
        summary = result.summary()
        windows = summary["metrics_windows"]
        assert windows, "streaming summary must carry window rows"
        assert sum(row["committed"] for row in windows) == result.report().committed
        assert all(row["label"] == STEADY_LABEL for row in windows)

    def test_streaming_report_matches_the_unbounded_run(self, result):
        unbounded = run_simulation(steady_spec())
        assert result.report().committed == unbounded.report().committed
        assert result.report().efficiency == unbounded.report().efficiency


class TestCheckpointAfterPruning:
    def test_retained_sweep_resumes_from_a_truncated_checkpoint(self, tmp_path):
        """Pruning does not break resumability: an interrupted checkpointed
        sweep over retained specs resumes to the identical result."""
        sweep = Sweep(steady_spec(retention=8, num_blocks=24)).over(
            blocks_per_set=[2, 4]
        ).trials(1)
        path = tmp_path / "ck.jsonl"
        complete = sweep.run(workers=1, checkpoint=path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:2]))  # header + first row: interrupted
        resumed = sweep.run(workers=1, checkpoint=path)
        assert resumed.to_json() == complete.to_json()
