"""The harness's own arithmetic and naming, pinned without running a simulation."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import compare  # noqa: E402
import loadgen  # noqa: E402
import registry  # noqa: E402
import stats  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_is_duration_minus_direct_children():
    spans = [
        ("run", 0.0, 10.0, -1),
        ("step", 1.0, 4.0, 0),
        ("receive", 2.0, 3.0, 1),
        ("step", 5.0, 9.0, 0),
        None,  # still open when snapshotted
    ]
    table = stats.self_times(spans)
    assert table["run"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert table["step"] == {"calls": 2, "total_s": 7.0, "self_s": 6.0}
    assert table["receive"]["self_s"] == 1.0
    # Self times of one thread add up to its root spans' durations.
    assert sum(entry["self_s"] for entry in table.values()) == 10.0


def test_self_time_window_tallies_only_spans_starting_inside():
    spans = [("warmup", 0.0, 1.0, -1), ("request", 2.0, 3.0, -1), ("execute", 2.2, 2.8, 1)]
    table = stats.self_times(spans, window=(1.5, 3.5))
    assert set(table) == {"request", "execute"}
    assert table["request"]["self_s"] == pytest.approx(0.4)


def test_merged_tables_sum_across_threads():
    one = stats.self_times([("execute", 0.0, 2.0, -1)])
    other = stats.self_times([("execute", 1.0, 2.0, -1), ("dispatch", 0.0, 1.0, -1)])
    merged = stats.merge_self_times([one, other])
    assert merged["execute"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0}
    assert merged["dispatch"]["calls"] == 1


@pytest.mark.parametrize(
    "samples, fraction",
    [(5, 0.50), (99, 0.50), (100, 0.90), (199, 0.90), (200, 0.95), (999, 0.95), (1000, 0.99), (9600, 0.99), (10000, 0.999)],
)
def test_highest_percentile_keeps_ten_samples_beyond(samples, fraction):
    assert stats.highest_percentile(samples) == fraction


def test_tail_falls_back_to_what_the_sample_supports():
    values = [float(value) for value in range(1, 301)]  # 300 samples: p95 at most
    assert stats.tail(values, 0.99) == (0.95, 285.0)
    assert stats.tail([3.0, 1.0, 2.0, 4.0], 0.99) == (0.50, 2.5)
    assert stats.percentile(values, 0.50) == 150.0


def test_normalisation_scales_by_host_speed_and_workload_size():
    # The kernel ran 25 % slower than the reference, so the host did too.
    assert stats.normalise(2.5, cal_observed_s=0.00125, cal_ref_s=0.001) == pytest.approx(2.0)
    assert stats.normalise(2.0, 0.001, 0.001) == 2.0
    # 154k events took 2.2 s; the metric is quoted at 140k.
    assert stats.scale_to_size(2.2, units_done=154_000, units_stated=140_000) == pytest.approx(2.0)


def test_open_loop_latency_runs_from_the_due_time():
    due, sent, done = 10.000, 10.030, 10.034  # stuck 30 ms behind a slow predecessor
    assert stats.open_loop_latency(due, done) == pytest.approx(0.034)
    assert stats.open_loop_latency(due, done) > done - sent


def test_generator_lateness_excludes_waiting_for_the_previous_answer():
    sample = loadgen.RequestSample
    ops = [
        sample("observe", due=0.000, sent=0.001, done=0.020, ok=True),  # 1 ms late while idle
        sample("buy", due=0.010, sent=0.020, done=0.040, ok=True),  # held back by the server, not the generator
        sample("status", due=0.100, sent=0.108, done=0.110, ok=True),  # idle, yet sent 8 ms late: starved
    ]
    assert loadgen.late_ms(ops) == pytest.approx([1.0, 0.0, 8.0])
    # ... while the held-back op still pays for its wait in latency and SLO terms.
    assert stats.open_loop_latency(ops[1].due, ops[1].done) * 1000.0 == pytest.approx(30.0)
    assert loadgen.slo_hits(ops, unsent=1) == (2, 4)


def test_spread_is_interquartile_share_of_median():
    assert stats.spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    digest = stats.summarise([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (digest["q1"], digest["median"], digest["q3"]) == (1.5, 3.0, 4.5)
    assert stats.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == 1.0


@pytest.mark.parametrize(
    "candidate, candidate_repeats, expected",
    [
        (1.04, [1.03, 1.04, 1.05], "within"),
        (1.30, [1.29, 1.30, 1.31], "worse"),
        (0.70, [0.69, 0.70, 0.71], "better"),
        (1.30, [0.99, 1.30, 1.70], "unresolved"),  # wide and overlapping: not a finding
    ],
)
def test_compare_verdicts(candidate, candidate_repeats, expected):
    reference_repeats = [0.99, 1.00, 1.01]
    assert compare.verdict(1.00, candidate, reference_repeats, candidate_repeats, "lower", 0.10) == expected


def test_compare_respects_direction():
    repeats = [100.0, 100.0, 100.0]
    assert compare.verdict(100.0, 80.0, repeats, [80.0] * 3, "higher", 0.10) == "worse"
    assert compare.verdict(100.0, 120.0, repeats, [120.0] * 3, "higher", 0.10) == "better"


def test_benchmark_json_and_the_registry_name_the_same_things():
    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = registry.benchmark_json(declared["command"], declared["paths"], declared["run_seconds"])
    assert declared == expected
    assert declared["paths"] == ["bench"]
    names = (
        [workload["name"] for workload in declared["workloads"]]
        + [metric["name"] for metric in declared["end_to_end"]]
        + [metric["name"] for metric in declared["per_layer"]]
    )
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert len(names) == len(set(names))
    assert "setup_s" in registry.END_TO_END_UNITS
    assert all(0 < bound <= 0.25 for _name, _unit, _better, bound in registry.END_TO_END)
    assert set(registry.EXACT_COUNTS) <= set(registry.PER_LAYER_UNITS)


def test_gossip_golden_is_the_bench_topology_cell():
    """The public-builder spec is the same cell ``BENCH_topology.json`` timed."""
    topology = BENCH_DIR.parent / "BENCH_topology.json"
    if not topology.exists():
        pytest.skip("BENCH_topology.json has been retired")
    legs = json.loads(topology.read_text(encoding="utf-8"))["baseline"]["legs"]
    golden = json.loads((BENCH_DIR / "golden.json").read_text(encoding="utf-8"))
    assert golden["full"]["gossip_1k"]["sha256"] == legs["random_k_1000"]["checksum"]
    assert golden["smoke"]["gossip_1k"]["sha256"] == legs["random_k_100"]["checksum"]
