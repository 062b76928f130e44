#!/usr/bin/env python
"""Topology performance harness: times propagation cells per gossip graph and
writes ``BENCH_topology.json``.

Where ``engine_perf.py`` times the simulation engine on the default full-mesh
network, this harness times the *network model* itself: one displacement-
under-defense cell per registered topology at 100 peers, plus the scale leg —
``random_k`` at 1000 peers — which the propagation experiment's full grid
depends on staying tractable (the CI budget for that leg is ten minutes; it
runs only outside ``--smoke``).

Per leg the report records wall seconds alongside the run's observable
propagation digest — block-propagation p50/p95, orphan rate, deliveries, and
mean degree — and a SHA-256 of the full summary.  The ``full_mesh`` leg rides
the legacy direct-broadcast path, so its checksum doubles as a byte-identity
sentinel: under ``--smoke`` the run **fails** if it drifts from the committed
baseline's, exactly like the engine harness treats its sweep rows.

Baseline protocol (same as the other harnesses): the first run — or
``--record-baseline`` — stores its numbers under ``"baseline"``; later runs
keep that baseline, update ``"current"``, and report per-leg ``"speedup"``
on wall seconds (higher is better), refused when the grids differ.

Usage::

    PYTHONPATH=src python benchmarks/topology_perf.py
    PYTHONPATH=src python benchmarks/topology_perf.py --smoke
    PYTHONPATH=src python benchmarks/topology_perf.py --record-baseline
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time
from pathlib import Path
from typing import Any, Dict

BENCH_SEED = 20260807
BENCH_BUYS = 8
DIGEST_KEYS = (
    "block_propagation_p50",
    "block_propagation_p95",
    "orphan_rate",
    "block_deliveries",
    "block_duplicates",
    "mean_degree",
)
SENTINEL_LEGS = ("full_mesh_100",)


def legs(smoke: bool):
    from repro.experiments.propagation import DEFAULT_TOPOLOGIES

    table = [(f"{name}_100", name, 100) for name in DEFAULT_TOPOLOGIES]
    if not smoke:
        table.append(("random_k_1000", "random_k", 1000))
    return table


def bench_leg(topology: str, peers: int) -> Dict[str, Any]:
    from repro.api.engine import run_simulation
    from repro.experiments.propagation import _cell_spec

    spec = _cell_spec(topology, peers, "displacement", BENCH_BUYS).with_seed(BENCH_SEED)
    started = time.perf_counter()
    summary = run_simulation(spec).summary()
    elapsed = time.perf_counter() - started
    digest = summary["extras"]["network"]
    checksum = hashlib.sha256(
        json.dumps(summary, sort_keys=True).encode("utf-8")
    ).hexdigest()
    leg = {"wall_s": round(elapsed, 3), "checksum": checksum}
    for key in DIGEST_KEYS:
        value = digest[key]
        leg[key] = round(value, 5) if isinstance(value, float) else value
    return leg


def run_benchmarks(smoke: bool) -> Dict[str, Any]:
    legs_run: Dict[str, Any] = {}
    for leg_name, topology, peers in legs(smoke):
        leg = bench_leg(topology, peers)
        legs_run[leg_name] = leg
        print(
            f"  {leg_name:16s} {leg['wall_s']:8.2f}s  "
            f"p50 {leg['block_propagation_p50']:.3f}s  "
            f"p95 {leg['block_propagation_p95']:.3f}s  "
            f"orphan_rate {leg['orphan_rate']:.4f}"
        )
    return {
        "legs": legs_run,
        "sizes": {"buys": BENCH_BUYS, "seed": BENCH_SEED, "smoke": smoke},
    }


def compute_speedup(baseline: Dict[str, Any], current: Dict[str, Any]) -> Dict[str, float]:
    """Per-leg wall-time speedup (higher is better); legs absent from either
    run are skipped, and differing grid sizes refuse comparison entirely."""
    if baseline.get("sizes", {}).get("buys") != current.get("sizes", {}).get("buys"):
        return {}
    speedup: Dict[str, float] = {}
    for leg_name, leg in current["legs"].items():
        baseline_leg = baseline.get("legs", {}).get(leg_name)
        if not baseline_leg or not leg.get("wall_s"):
            continue
        speedup[leg_name] = round(baseline_leg["wall_s"] / leg["wall_s"], 3)
    return speedup


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="skip the 1000-peer leg; fail if the full_mesh "
                             "leg's checksum drifts from the committed baseline")
    parser.add_argument("--record-baseline", action="store_true",
                        help="store this run as the baseline (overwriting any existing one)")
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_topology.json",
    )
    arguments = parser.parse_args()

    print(f"topology benchmarks ({'smoke' if arguments.smoke else 'full'} grid):")
    run = run_benchmarks(arguments.smoke)

    report: Dict[str, Any] = {}
    if arguments.output.exists():
        try:
            report = json.loads(arguments.output.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            report = {}

    committed_baseline = report.get("baseline")
    if arguments.smoke and committed_baseline is not None:
        for leg_name in SENTINEL_LEGS:
            baseline_leg = committed_baseline.get("legs", {}).get(leg_name)
            current_leg = run["legs"].get(leg_name)
            if not baseline_leg or not current_leg:
                continue
            if baseline_leg["checksum"] != current_leg["checksum"]:
                raise SystemExit(
                    f"{leg_name} output checksum drifted from the committed "
                    "baseline — the full-mesh path is no longer byte-identical:\n"
                    f"  baseline: {baseline_leg['checksum']}\n"
                    f"  current:  {current_leg['checksum']}"
                )

    if arguments.record_baseline or "baseline" not in report:
        report["baseline"] = run
    report["current"] = run
    report["speedup"] = compute_speedup(report["baseline"], run)

    arguments.output.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {arguments.output}")
    if report["speedup"]:
        print("speedup vs baseline: " + ", ".join(
            f"{name}={value}x" for name, value in sorted(report["speedup"].items())
        ))


if __name__ == "__main__":
    main()
