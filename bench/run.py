#!/usr/bin/env python3
"""The repo's one benchmark: six workloads, seven end-to-end metrics, a
per-layer budget table.

    python3 bench/run.py                         # all six workloads, end to end
    python3 bench/run.py --trace                 # ... plus the traced pass and budget tables
    python3 bench/run.py --smoke                 # one small round of everything, < 20 s
    python3 bench/run.py --workload gossip_1k --seed 7 --seconds 14 --trace 0

The last form is what the benchmark driver runs: one workload, and the last
line of standard output is one JSON object ``{correct, attempted, failed,
metrics}`` holding every end-to-end metric (``--trace 0``) or every
per-layer metric (``--trace 1``).  See ``README.md`` for what each number
means and how it is taken.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse
import gc
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(REPO_ROOT / "src"))

import registry
import stats
import workloads  # imports the program: a checkout without src/ stops here
from repro.api import reset_process_caches
from repro.obs import snapshot as obs_snapshot

_IMPORTED = time.perf_counter()

import hostspeed
import metrics
import trace as bench_trace

MIN_REPEATS = 3
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 120.0


def parse_arguments(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=registry.WORKLOAD_NAMES, default=list(registry.WORKLOAD_NAMES))
    parser.add_argument("--seed", type=int, default=None, help="drives every spec seed, op sequence and arrival stream")
    parser.add_argument("--seconds", type=float, default=None, help="measuring time per workload (default: BENCHMARK.json's run_seconds)")
    parser.add_argument(
        "--trace",
        nargs="?",
        const="both",
        default="0",
        choices=("0", "1", "both"),
        help="0: end-to-end only; 1: the traced pass only; bare --trace: both",
    )
    parser.add_argument("--smoke", action="store_true", help="one round at 100 peers / 2,000 blocks / trials=1 / 100 ops per client")
    parser.add_argument("--out", type=Path, default=None, help="results JSON (default: bench/out/results_<seed>.json)")
    parser.add_argument("--record-baseline", action="store_true", help="rewrite bench/baseline.json from this run")
    parser.add_argument("--record-golden", action="store_true", help="re-pin bench/golden.json to this run's outputs (default seed only)")
    parser.add_argument("--child", choices=("setup", "rss"), default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_json(name: str) -> Dict[str, Any]:
    return json.loads((BENCH_DIR / name).read_text(encoding="utf-8"))


# -- children: set-up and peak RSS are taken in fresh interpreters -------------------------


def child_main(arguments: argparse.Namespace) -> int:
    """``--child setup``: set the workload up and report how long it took
    from interpreter start.  ``--child rss``: also run one repeat and report
    this process's resident high-water mark, which no earlier repeat has touched."""
    workload = workloads.BY_NAME[arguments.workload[0]]()
    workload.setup(arguments.seed, "smoke" if arguments.smoke else "full")
    report: Dict[str, Any] = {"setup_s": time.perf_counter() - _STARTED}
    try:
        if arguments.child == "rss":
            workload.run_once(0)
            report["peak_rss_mb"] = workloads.peak_rss_mb()
    finally:
        workload.teardown()
    print(json.dumps(report))
    return 0


def spawn_child(kind: str, name: str, seed: int, smoke: bool) -> Dict[str, Any]:
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--child", kind, "--workload", name, "--seed", str(seed)]
    if smoke:
        command.append("--smoke")
    finished = subprocess.run(command, cwd=REPO_ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if finished.returncode != 0:
        raise RuntimeError(f"{kind} child of {name} failed:\n{finished.stderr}")
    return json.loads(finished.stdout.strip().splitlines()[-1])


# -- measuring -----------------------------------------------------------------------------


def measure(active: Sequence[Any], seconds: float, min_repeats: int, sampler: Any) -> Dict[str, Tuple[List[Any], List[float]]]:
    """Repeats of every workload, round-robin (round 1 of each, then round
    2, ...) so host drift lands on all of them alike, until each has spent
    ``seconds``.  Returns ``{name: (repeats, calibration seconds per repeat)}``."""
    taken: Dict[str, Tuple[List[Any], List[float]]] = {workload.name: ([], []) for workload in active}
    spent = {workload.name: 0.0 for workload in active}
    pending = list(active)
    round_index = 0
    sampler.start()
    try:
        while pending:
            for workload in list(pending):
                repeats, calibration = taken[workload.name]
                typical = spent[workload.name] / len(repeats) if repeats else 0.0
                if len(repeats) >= min_repeats and spent[workload.name] + typical / 2 > seconds:
                    pending.remove(workload)
                    continue
                began = time.perf_counter()
                if workload.in_process:
                    # A fresh worker's cost, not a warm one's: what the first
                    # user of a process pays.
                    reset_process_caches()
                    gc.collect()
                mark = sampler.mark()
                repeats.append(workload.run_once(round_index))
                calibration.append(sampler.speed_since(mark))
                spent[workload.name] += time.perf_counter() - began
            round_index += 1
    finally:
        sampler.stop()
    return taken


def end_to_end(
    workload: Any,
    repeats: Sequence[Any],
    calibration: Sequence[float],
    cal_ref_s: float,
    stated_units: int,
    setup_samples: Sequence[float],
    peak_rss_mb: float,
) -> Tuple[Dict[str, Any], int]:
    late_repeats = 0
    if workload.in_process:
        entries = metrics.simulator_end_to_end(repeats, calibration, cal_ref_s, stated_units)
    else:
        entries, late_repeats = metrics.service_end_to_end(repeats, calibration, cal_ref_s, workload.mode == "open")
    entries["setup_s"] = metrics.median_entry("setup_s", setup_samples)
    entries["peak_rss_mb"] = metrics.median_entry("peak_rss_mb", [peak_rss_mb])
    return {name: entries[name] for name in registry.END_TO_END_UNITS}, late_repeats


# -- the traced pass -----------------------------------------------------------------------


def traced_simulator(workload: Any) -> Tuple[Dict[str, float], str, List[Any]]:
    reset_process_caches()
    gc.collect()
    untraced = workload.run_once(0)
    recorder = bench_trace.SpanRecorder()
    recorder.install()
    try:
        reset_process_caches()
        gc.collect()
        probes_before = obs_snapshot()
        traced = workload.run_once(0, observe=True)
    finally:
        recorder.uninstall()
    table = recorder.table()
    values = metrics.simulator_layers(table, traced.observability, probes_before, traced.wall_s)
    values["obs.trace_overhead_ratio"] = traced.wall_s / untraced.wall_s
    values["faults.converged"] = 1.0 if traced.facts.get("converged") else 0.0
    if workload.name == "figure2_sweep":
        parallel = workload.run_once(0, workers=2)
        values["api.sweep.parallel_speedup_w2"] = untraced.wall_s / parallel.wall_s
        # The same read-path spans, split by the grid's extreme buys:set
        # ratios: write-heavy (1) against read-heavy (20) use of HMS.
        per_trial = recorder.totals_under("SimulationHandle.run", "HashMarkSet.read_uncommitted")
        for ratio in (1.0, 20.0):
            values[f"hms.read_s.ratio_{ratio:g}"] = sum(
                seconds for seconds, tags in zip(per_trial, workload.job_tags) if tags["buys_per_set"] == ratio
            )
    recorder.dump(OUT_DIR / f"trace_{workload.name}.json")
    budget = bench_trace.format_budget(workload.name, bench_trace.budget_rows(table, traced.wall_s), traced.wall_s)
    return values, budget, [untraced, traced]


def traced_service(workload: Any) -> Tuple[Dict[str, float], str, List[Any]]:
    untraced = workload.run_once(0)
    reference = workload.run_once(1, clients=1, mode="closed")
    server_spans = OUT_DIR / f"trace_{workload.name}.server.json"
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    recorder = bench_trace.SpanRecorder()
    recorder.install()
    try:
        server = workloads.Server(traced_spans=server_spans)
        try:
            traced = workload.run_once(1, server=server, clients=1, mode="closed")
        finally:
            server.stop()
    finally:
        recorder.uninstall()
    requests = [sample for loop in traced.loops for sample in loop.requests]
    window = (min(sample.sent for sample in requests), max(sample.done for sample in requests))
    table = stats.merge_self_times([recorder.table(window), bench_trace.load_table(server_spans, window)])
    values = metrics.service_layers(table, sum(loop.cpu_s for loop in traced.loops))
    values.update(metrics.verb_medians_ms(untraced))

    def median_ms(repeat: Any) -> float:
        return statistics.median(
            (sample.done - sample.due) * 1000.0 for loop in repeat.loops for sample in loop.requests
        )

    values["obs.trace_overhead_ratio"] = median_ms(traced) / median_ms(reference)
    values["service.rejected_overload"] = workload.server.client.status()["stats"]["rejected_overload"]
    values["service.client_retries"] = untraced.facts["client_retries"]
    # The tail is reported here and not gated: at a few thousand samples on
    # a shared host it moves by a third between identical runs.
    latencies = [(s.done - s.due) * 1000.0 for loop in untraced.loops for s in loop.requests if s.ok]
    values[f"service.rpc_p99_ms.{workload.mode}"] = stats.tail(latencies)[1]
    if workload.mode == "open":
        values["loadgen.late_p99_ms"] = metrics.generator_late_ms(untraced)
    # The server's spans are children of the client's in time though not on
    # one thread; take them out of their parents' self time so each
    # millisecond is counted once.
    table["ServiceClient.request"]["self_s"] -= table["ServiceServer.execute"]["total_s"]
    table["ServiceServer.execute"]["self_s"] -= table["SimulatorService.dispatch"]["total_s"]
    recorder.dump(OUT_DIR / f"trace_{workload.name}.json")
    wall = window[1] - window[0]
    budget = bench_trace.format_budget(workload.name, bench_trace.budget_rows(table, wall), wall)
    return values, budget, [untraced, reference, traced]


# -- reporting -----------------------------------------------------------------------------


def format_metrics(heading: str, entries: Dict[str, Dict[str, Any]], detailed: bool) -> str:
    lines = [f"{heading}:"]
    for metric, entry in entries.items():
        line = f"  {metric:<34}{entry['value']:>16.6g} {entry['unit']}"
        if detailed and len(entry.get("per_repeat", ())) > 1:
            digest = stats.summarise(entry["per_repeat"])
            line += (
                f"   (repeats n={digest['n']} q1={digest['q1']:.6g} q3={digest['q3']:.6g} "
                f"min={digest['min']:.6g}; raw median {entry['raw_median']:.6g})"
            )
        lines.append(line)
    return "\n".join(lines)


def contract_line(result: Dict[str, Any], section: str) -> str:
    """The one JSON object the benchmark driver reads."""
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": entry["value"], "unit": entry["unit"]} for name, entry in result[section].items()
            },
        }
    )


def evaluate(
    workload: Any,
    arguments: argparse.Namespace,
    golden: Dict[str, Any],
    cal_ref_s: float,
    taken: Optional[Tuple[List[Any], List[float]]],
    setup_samples: List[float],
) -> Dict[str, Any]:
    """One workload's result: end-to-end entries from its repeats, the
    traced pass if asked for, and the output checks (on every invocation)."""
    name, size = workload.name, "smoke" if arguments.smoke else "full"
    result: Dict[str, Any] = {"generator_late_repeats": 0}
    repeats: List[Any] = []
    if taken is not None:
        repeats, calibration = taken
        if workload.in_process:
            child = spawn_child("rss", name, arguments.seed, arguments.smoke)
            setup_samples.append(child["setup_s"])
            peak_rss_mb = child["peak_rss_mb"]
        else:
            peak_rss_mb = workload.server.peak_rss_mb()
        while not arguments.smoke and len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(spawn_child("setup", name, arguments.seed, False)["setup_s"])
        result["end_to_end"], result["generator_late_repeats"] = end_to_end(
            workload,
            repeats,
            calibration,
            cal_ref_s,
            golden[size][name]["units"] if workload.in_process else 0,
            setup_samples,
            peak_rss_mb,
        )
        result["cal_s"] = statistics.median(calibration)
    if arguments.trace in ("1", "both"):
        layers, result["budget"], traced_repeats = (
            traced_simulator(workload) if workload.in_process else traced_service(workload)
        )
        result["per_layer"] = metrics.complete_layers(layers)
        repeats = list(repeats) + traced_repeats[:1]

    failures = workload.check(repeats)
    checks = 1
    if arguments.record_golden and workload.in_process:
        golden[size][name] = {"sha256": repeats[0].digest, "units": repeats[0].units}
    pinned = golden[size].get(name, {}).get("sha256")
    if arguments.seed == golden["default_seed"] and pinned is not None:
        checks += 1
        drifted = sorted({repeat.digest for repeat in repeats if repeat.digest != pinned})
        if drifted:
            failures.append(f"output sha256 {drifted[0]} != golden {pinned}")
    result["checks"] = failures
    result["attempted"] = sum(repeat.attempted for repeat in repeats) + checks
    result["failed"] = sum(repeat.failed for repeat in repeats) + len(failures)
    result["correct"] = result["failed"] == 0
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    arguments = parse_arguments(argv)
    golden = load_json("golden.json")
    if arguments.seed is None:
        arguments.seed = golden["default_seed"]
    if arguments.child is not None:
        return child_main(arguments)
    if arguments.record_golden and arguments.seed != golden["default_seed"]:
        raise SystemExit("--record-golden pins the default seed's outputs; drop --seed")

    size = "smoke" if arguments.smoke else "full"
    cal_ref_s = load_json("baseline.json")["cal_ref_s"]
    seconds = arguments.seconds
    if seconds is None:
        seconds = 0.0 if arguments.smoke else float(json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["run_seconds"])

    active = [workloads.BY_NAME[name]() for name in arguments.workload]
    results: Dict[str, Dict[str, Any]] = {}
    try:
        setup_samples: Dict[str, List[float]] = {}
        for workload in active:
            began = time.perf_counter()
            workload.setup(arguments.seed, size)
            setup_samples[workload.name] = [(_IMPORTED - _STARTED) + (time.perf_counter() - began)]
        taken: Dict[str, Any] = {}
        if arguments.trace in ("0", "both"):
            taken = measure(active, seconds, 1 if arguments.smoke else MIN_REPEATS, hostspeed.HostSpeedSampler())
        for workload in active:
            results[workload.name] = evaluate(
                workload, arguments, golden, cal_ref_s, taken.get(workload.name), setup_samples[workload.name]
            )
    finally:
        for workload in active:
            workload.teardown()

    detailed = len(active) > 1 or arguments.trace == "both"
    for workload in active:
        name, result = workload.name, results[workload.name]
        if "end_to_end" in result:
            print(format_metrics(f"{name} (unit of work: {workload.unit})", result["end_to_end"], detailed))
            if result["generator_late_repeats"]:
                print(f"  generator_late repeats (left out of slo_hit_ratio): {result['generator_late_repeats']}")
        if "per_layer" in result:
            print(format_metrics(name, result["per_layer"], False))
            print(result["budget"])
        print(f"  attempted {result['attempted']}, failed {result['failed']}")
        for failure in result["checks"]:
            print(f"  CHECK FAILED [{name}]: {failure}")

    document = {
        "seed": arguments.seed,
        "size": size,
        "trace": arguments.trace,
        "seconds": seconds,
        "cal_ref_s": cal_ref_s,
        "workloads": results,
    }
    out = arguments.out or OUT_DIR / f"results_{arguments.seed}{'_smoke' if arguments.smoke else ''}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"results: {out}")
    if arguments.record_baseline:
        record_baseline(document)
    if arguments.record_golden:
        (BENCH_DIR / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print("golden recorded: bench/golden.json")
    if len(active) == 1:
        print(contract_line(results[active[0].name], "per_layer" if arguments.trace == "1" else "end_to_end"))
    return 0 if all(result["correct"] for result in results.values()) else 1


def record_baseline(document: Dict[str, Any]) -> None:
    """Store this run's end-to-end values beside the ``cal_ref_s`` they were
    normalised against (``hostspeed.py`` re-measures that constant)."""
    baseline = load_json("baseline.json")
    baseline["default_seed"] = document["seed"]
    baseline["end_to_end"] = {
        name: {metric: entry["value"] for metric, entry in result["end_to_end"].items()}
        for name, result in document["workloads"].items()
    }
    (BENCH_DIR / "baseline.json").write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("baseline recorded: bench/baseline.json")


if __name__ == "__main__":
    raise SystemExit(main())
