"""Sweep engine tests: grid expansion, deterministic seeding, serial == parallel."""

import json
import multiprocessing.pool
from dataclasses import replace

import pytest

from repro.api import EmptySelectionError, Simulation, Sweep, derive_seed
from repro.api.sweep import SweepResult, SweepRow


def small_base(seed: int = 3):
    return replace(
        Simulation.builder()
        .scenario("geth_unmodified")
        .workload("market", num_buys=8, num_buyers=2, buys_per_set=2.0)
        .miners(1)
        .clients(2)
        .seed(seed)
        .build(),
        settle_blocks=3,
    )


class TestGridExpansion:
    def test_cell_count_is_the_product_of_dimensions_and_trials(self):
        sweep = (
            Sweep(small_base())
            .over(scenario=["geth_unmodified", "semantic_mining"], buys_per_set=[1.0, 2.0, 4.0])
            .trials(3)
        )
        jobs = sweep.jobs()
        assert len(jobs) == 2 * 3 * 3

    def test_dimensions_land_in_the_right_place(self):
        jobs = (
            Sweep(small_base())
            .over(scenario=["semantic_mining"], buys_per_set=[4.0], block_interval=[5.0])
            .jobs()
        )
        spec, tags = jobs[0]
        assert spec.scenario.name == "semantic_mining"  # scenario dimension
        assert spec.block_interval == 5.0  # spec-field dimension
        assert spec.params["buys_per_set"] == 4.0  # workload-param dimension
        assert tags["scenario"] == "semantic_mining"
        assert tags["trial"] == 0

    def test_per_trial_seeds_are_deterministic_and_distinct(self):
        sweep = Sweep(small_base()).over(buys_per_set=[1.0, 2.0]).trials(2)
        seeds = [spec.seed for spec, _tags in sweep.jobs()]
        assert len(set(seeds)) == len(seeds)  # every cell/trial differs
        assert seeds == [spec.seed for spec, _tags in sweep.jobs()]  # stable re-expansion

    def test_seed_derivation_is_rooted_at_the_base_seed(self):
        first = [spec.seed for spec, _tags in Sweep(small_base(seed=1)).over(buys_per_set=[1.0]).jobs()]
        second = [spec.seed for spec, _tags in Sweep(small_base(seed=2)).over(buys_per_set=[1.0]).jobs()]
        assert first != second

    def test_empty_dimension_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            Sweep(small_base()).over(buys_per_set=[])

    def test_bad_trials_rejected(self):
        with pytest.raises(ValueError):
            Sweep(small_base()).trials(0)

    def test_derive_seed_is_stable(self):
        assert derive_seed(3, "a", 1) == derive_seed(3, "a", 1)
        assert derive_seed(3, "a", 1) != derive_seed(3, "a", 2)


class TestExecution:
    @pytest.fixture(scope="class")
    def sweep(self):
        return (
            Sweep(small_base())
            .over(
                scenario=["geth_unmodified", "sereth_client", "semantic_mining"],
                buys_per_set=[1.0, 2.0, 10.0],
            )
            .trials(1)
        )

    def test_serial_and_parallel_runs_are_byte_identical(self, sweep):
        """The acceptance criterion: a 3-scenario x 3-ratio sweep with
        workers=4 produces byte-identical metrics to the serial run."""
        serial = sweep.run(workers=1)
        parallel = sweep.run(workers=4)
        assert serial.to_json() == parallel.to_json()
        assert serial.to_csv() == parallel.to_csv()

    def test_rows_carry_efficiency_and_reports(self, sweep):
        result = sweep.run(workers=1)
        assert len(result) == 9
        for row in result:
            assert 0.0 <= row.efficiency <= 1.0
            assert row.report("buy")["submitted"] == 8

    def test_filter_and_mean_efficiency(self, sweep):
        result = sweep.run(workers=1)
        semantic = result.filter(scenario="semantic_mining")
        assert len(semantic) == 3
        assert result.mean_efficiency(scenario="semantic_mining") >= result.mean_efficiency(
            scenario="geth_unmodified"
        )
        with pytest.raises(KeyError):
            result.mean_efficiency(scenario="nonexistent")

    def test_filter_returns_a_chainable_sweep_result(self, sweep):
        result = sweep.run(workers=1)
        filtered = result.filter(scenario="semantic_mining")
        assert isinstance(filtered, SweepResult)
        # chains like a ResultFrame, and still indexes/iterates like a list
        chained = filtered.filter(buys_per_set=1.0)
        assert len(chained) == 1
        assert chained[0].tags["scenario"] == "semantic_mining"
        assert chained.mean_efficiency() == chained[0].efficiency

    def test_exports_write_files(self, sweep, tmp_path):
        result = sweep.run(workers=1)
        json_path = tmp_path / "rows.json"
        csv_path = tmp_path / "rows.csv"
        result.to_json(json_path)
        result.to_csv(csv_path)
        rows = json.loads(json_path.read_text())
        assert len(rows) == 9
        header = csv_path.read_text().splitlines()[0]
        assert "scenario" in header and "efficiency" in header

    def test_keep_results_requires_serial(self, sweep):
        with pytest.raises(ValueError, match="serial"):
            sweep.run(workers=2, keep_results=True)

    def test_keep_results_attaches_live_results(self):
        sweep = Sweep(small_base()).over(buys_per_set=[1.0]).trials(1)
        result = sweep.run(workers=1, keep_results=True)
        assert result.rows[0].result is not None
        assert result.rows[0].result.reports["buy"].submitted == 8


class TestEmptySelections:
    def test_no_matching_rows_raises_a_clear_error(self):
        result = SweepResult(rows=[SweepRow(tags={"scenario": "geth"}, summary={})])
        with pytest.raises(EmptySelectionError, match="no sweep rows match"):
            result.mean_efficiency(scenario="other")

    def test_rows_without_an_efficiency_metric_raise_not_zero_divide(self):
        """Rows exist but the workload has no primary label: the old code
        surfaced a misleading 'no rows match'; now the error says exactly
        what is missing (and EmptySelectionError is still a KeyError)."""
        rows = [SweepRow(tags={"scenario": "geth"}, summary={"efficiency": None})]
        result = SweepResult(rows=rows)
        with pytest.raises(EmptySelectionError, match="none carries an efficiency"):
            result.mean_efficiency(scenario="geth")
        assert issubclass(EmptySelectionError, KeyError)


class TestCheckpointedExecution:
    @pytest.fixture(scope="class")
    def sweep(self):
        return Sweep(small_base()).over(buys_per_set=[1.0, 2.0]).trials(1)

    def test_checkpointed_run_matches_a_plain_run(self, sweep, tmp_path):
        plain = sweep.run(workers=1)
        checkpointed = sweep.run(workers=1, checkpoint=tmp_path / "ck.jsonl")
        assert plain.to_json() == checkpointed.to_json()
        assert plain.to_csv() == checkpointed.to_csv()

    def test_interrupted_checkpoint_resumes_only_missing_rows(self, sweep, tmp_path):
        path = tmp_path / "ck.jsonl"
        complete = sweep.run(workers=1, checkpoint=path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:2]))  # header + first row: "interrupted"
        resumed = sweep.run(workers=1, checkpoint=path)
        assert resumed.to_json() == complete.to_json()

    def test_parallel_checkpointed_run_is_identical_to_serial(self, sweep, tmp_path):
        serial = sweep.run(workers=1, checkpoint=tmp_path / "serial.jsonl")
        parallel = sweep.run(workers=2, checkpoint=tmp_path / "parallel.jsonl")
        assert serial.to_json() == parallel.to_json()

    def test_keep_results_is_incompatible_with_checkpoints(self, sweep, tmp_path):
        with pytest.raises(ValueError, match="checkpoint"):
            sweep.run(workers=1, keep_results=True, checkpoint=tmp_path / "ck.jsonl")

    def test_row_line_missing_fields_is_dropped_not_fatal(self, sweep, tmp_path):
        """A parseable row line that lacks tags/summary (hand-edited or oddly
        truncated) drops that row only — the resume still proceeds from the
        intact rows instead of aborting with a KeyError."""
        path = tmp_path / "ck.jsonl"
        complete = sweep.run(workers=1, checkpoint=path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(lines[0] + lines[1] + json.dumps({"index": 1, "tags": {}}) + "\n")
        resumed = sweep.run(workers=1, checkpoint=path)
        assert resumed.to_json() == complete.to_json()

    def test_begin_compaction_is_atomic(self, sweep, tmp_path, monkeypatch):
        """begin() stages its rewrite through a temp file: a crash mid-compaction
        must leave the previous checkpoint's completed rows on disk."""
        from repro.api import checkpoint as checkpoint_module

        real_replace = checkpoint_module.os.replace
        path = tmp_path / "ck.jsonl"
        sweep.run(workers=1, checkpoint=path)
        before = path.read_text()

        def crash(*args):
            raise OSError("simulated crash")

        monkeypatch.setattr(checkpoint_module.os, "replace", crash)
        with pytest.raises(OSError, match="simulated crash"):
            sweep.run(workers=1, checkpoint=path)
        monkeypatch.setattr(checkpoint_module.os, "replace", real_replace)
        assert path.read_text() == before  # prior rows survived the failed rewrite
        resumed = sweep.run(workers=1, checkpoint=path)
        assert len(resumed.rows) == 2


class TestPoolShutdown:
    """A successful parallel run lets its workers leave through their
    sentinel; ``Pool.terminate`` (SIGTERM to every worker) is for errors."""

    @pytest.fixture
    def terminations(self, monkeypatch):
        calls = []
        terminate = multiprocessing.pool.Pool.terminate

        def spy(pool):
            calls.append(pool)
            terminate(pool)

        monkeypatch.setattr(multiprocessing.pool.Pool, "terminate", spy)
        return calls

    def test_parallel_run_never_terminates_its_pool(self, terminations):
        result = Sweep(small_base()).over(buys_per_set=[1.0, 2.0]).run(workers=2)
        assert len(result) == 2
        assert terminations == []

    def test_checkpointed_parallel_run_never_terminates_its_pool(self, terminations, tmp_path):
        sweep = Sweep(small_base()).over(buys_per_set=[1.0, 2.0])
        result = sweep.run(workers=2, checkpoint=tmp_path / "ck.jsonl")
        assert len(result) == 2
        assert terminations == []
