"""Trace determinism: same seed ⇒ same event stream, and tracing-off keeps
the frozen golden bytes.

Wall-clock fields (``wall_time``/``wall_start``/``wall_duration``) are the
only nondeterministic part of a trace, so the comparisons here strip every
key beginning with ``wall`` and require the rest — kinds, sim times, args,
sequence order — to match byte for byte across serial and parallel runs.
"""

import json
from dataclasses import replace
from pathlib import Path

from repro.api import SimulationBuilder, Simulation, Sweep, spec_digest

from repro.experiments.chaos import golden_sweep
from repro.golden import assert_holds
from tests.api.test_golden_determinism import export


def _observed_sweep(trace_dir: Path) -> Sweep:
    """A small two-job grid with tracing on, writing into ``trace_dir``."""
    base = (
        SimulationBuilder()
        .workload("market", num_buys=8)
        .scenario("geth_unmodified")
        .miners(1)
        .clients(1)
        .seed(20260807)
        .build()
    )
    sweep = Sweep(base).over(scenario=["geth_unmodified", "semantic_mining"]).trials(1)
    return sweep.observed(trace_dir)


def _stable_lines(path: Path) -> list:
    """The trace's JSONL records with every wall-clock field stripped."""
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        rows.append({key: value for key, value in record.items() if not key.startswith("wall")})
    return rows


class TestTraceDeterminism:
    def test_serial_and_parallel_traces_match(self, tmp_path: Path):
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        _observed_sweep(serial_dir).run(workers=1)
        _observed_sweep(parallel_dir).run(workers=2)
        serial_files = sorted(serial_dir.glob("*.jsonl"))
        parallel_files = sorted(parallel_dir.glob("*.jsonl"))
        assert len(serial_files) == 2
        # Per-job file names are spec-content digests, so the two runs
        # produce identically named files regardless of execution mode.
        assert [f.name for f in serial_files] == [f.name for f in parallel_files]
        for serial_file, parallel_file in zip(serial_files, parallel_files):
            assert _stable_lines(serial_file) == _stable_lines(parallel_file)

    def test_repeated_run_reproduces_the_event_stream(self, tmp_path: Path):
        first_dir = tmp_path / "first"
        second_dir = tmp_path / "second"
        _observed_sweep(first_dir).run(workers=1)
        _observed_sweep(second_dir).run(workers=1)
        for first, second in zip(sorted(first_dir.glob("*.jsonl")), sorted(second_dir.glob("*.jsonl"))):
            assert _stable_lines(first) == _stable_lines(second)

    def test_trace_dir_does_not_change_spec_digest(self, tmp_path: Path):
        spec = (
            SimulationBuilder()
            .workload("market", num_buys=8)
            .scenario("geth_unmodified")
            .seed(1)
            .build()
        )
        observed = replace(spec, observe=True, trace_dir=str(tmp_path / "a"))
        elsewhere = replace(spec, observe=True, trace_dir=str(tmp_path / "b"))
        assert spec_digest(observed) == spec_digest(elsewhere)
        # ...but observe itself is part of the identity (it adds a summary key).
        assert spec_digest(observed) != spec_digest(spec)


class TestTracingOffStaysGolden:
    def test_untraced_sweep_keeps_the_frozen_checksum(self):
        # The regression the whole design hangs on: with observe unset, every
        # instrumented call site is one dead branch and the exported bytes
        # are exactly the pre-obs golden bytes.
        assert_holds("golden_sweep", export(golden_sweep().run(workers=1)))

    def test_default_summary_has_no_observability_key(self):
        spec = (
            SimulationBuilder()
            .workload("market", num_buys=4)
            .scenario("geth_unmodified")
            .seed(3)
            .build()
        )
        summary = Simulation(spec).run().summary()
        assert "observability" not in summary
        assert "observe" not in spec.describe()

    def test_observed_summary_carries_the_obs_digest(self):
        spec = (
            SimulationBuilder()
            .workload("market", num_buys=4)
            .scenario("geth_unmodified")
            .seed(3)
            .build()
        )
        observed = replace(spec, observe=True)
        summary = Simulation(observed).run().summary()
        obs = summary["observability"]
        assert obs["events"] > 0
        assert obs["dropped_events"] == 0
        assert "mine" in obs["phases"]
        assert {"network", "propagation", "wire_cache"} <= set(obs["probes"])
        # The digest itself is JSON-clean (it rides inside checkpoint rows).
        assert json.loads(json.dumps(summary))["observability"] == obs
