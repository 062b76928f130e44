"""Sweep engine tests: grid expansion, deterministic seeding, serial == parallel."""

import json
import multiprocessing.pool
from dataclasses import replace

import pytest

from repro.api import ResultFrame, Simulation, Sweep, derive_seed
from repro.api.checkpoint import record_check


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


class TestCellExpansion:
    """``Sweep.from_cells``: an ordered cell list, seeded under a namespace."""

    CELLS = [
        ({"row": "(control)", "ratio": 1.0}, small_base()),
        ({"row": "attack", "ratio": 2.0}, small_base().with_params(buys_per_set=2.0)),
    ]

    def test_trials_expand_in_cell_order_with_namespaced_seeds(self):
        jobs = Sweep.from_cells("demo", 7, 2, self.CELLS).jobs()
        assert [(tags["row"], tags["trial"]) for _spec, tags in jobs] == [
            ("(control)", 0),
            ("(control)", 1),
            ("attack", 0),
            ("attack", 1),
        ]
        for spec, tags in jobs:
            expected = derive_seed(7, "demo", tags["row"], tags["ratio"], tags["trial"])
            assert spec.seed == tags["seed"] == expected
            assert list(tags) == ["row", "ratio", "trial", "seed"]

    def test_each_job_is_its_cell_spec_reseeded(self):
        (spec, tags), *_ = Sweep.from_cells("demo", 7, 1, self.CELLS).jobs()
        assert spec == self.CELLS[0][1].with_seed(tags["seed"])

    def test_builder_seed_equals_with_seed(self):
        def builder():
            return Simulation.builder().scenario("geth_unmodified").workload("market")

        assert builder().seed(5).build() == builder().build().with_seed(5)

    def test_bad_trials_and_empty_cells_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            Sweep.from_cells("demo", 7, 0, self.CELLS)
        with pytest.raises(ValueError, match="at least one job"):
            Sweep.from_cells("demo", 7, 1, [])


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
        assert ResultFrame.from_sweep(serial).to_csv() == ResultFrame.from_sweep(parallel).to_csv()

    def test_rows_carry_efficiency_and_reports(self, sweep):
        result = sweep.run(workers=1)
        assert len(result) == 9
        for row in result:
            assert 0.0 <= row.summary["efficiency"] <= 1.0
            assert row.summary["reports"]["buy"]["submitted"] == 8

    def test_rows_are_analysed_through_the_frame(self, sweep):
        frame = ResultFrame.from_sweep(sweep.run(workers=1))
        assert len(frame.filter(scenario="semantic_mining")) == 3
        assert frame.mean("efficiency", scenario="semantic_mining") >= frame.mean(
            "efficiency", scenario="geth_unmodified"
        )

    def test_exports_write_files(self, sweep, tmp_path):
        result = sweep.run(workers=1)
        json_path = tmp_path / "rows.json"
        csv_path = tmp_path / "rows.csv"
        result.to_json(json_path)
        ResultFrame.from_sweep(result).to_csv(csv_path)
        rows = json.loads(json_path.read_text())
        assert len(rows) == 9
        header = csv_path.read_text().splitlines()[0]
        assert "scenario" in header and "efficiency" in header


class TestCheckpointedExecution:
    @pytest.fixture(scope="class")
    def sweep(self):
        return Sweep(small_base()).over(buys_per_set=[1.0, 2.0]).trials(1)

    def test_checkpointed_run_matches_a_plain_run(self, sweep, tmp_path):
        plain = sweep.run(workers=1)
        checkpointed = sweep.run(workers=1, checkpoint=tmp_path / "ck.jsonl")
        assert plain.to_json() == checkpointed.to_json()
        assert ResultFrame.from_sweep(plain).to_csv() == ResultFrame.from_sweep(checkpointed).to_csv()

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

    def test_row_line_missing_fields_is_dropped_not_fatal(self, sweep, tmp_path):
        """A parseable row line that lacks tags/summary (hand-edited or oddly
        truncated) drops that row only — the resume still proceeds from the
        intact rows instead of aborting with a KeyError."""
        path = tmp_path / "ck.jsonl"
        complete = sweep.run(workers=1, checkpoint=path)
        lines = path.read_text().splitlines(keepends=True)
        record = {"index": 1, "tags": {}}
        record["check"] = record_check(record)  # an intact line, just missing fields
        path.write_text(lines[0] + lines[1] + json.dumps(record) + "\n")
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
