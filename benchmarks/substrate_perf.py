#!/usr/bin/env python
"""Substrate performance harness: measures the simulation hot path and writes
``BENCH_substrate.json``.

Covers the layers the chain substrate spends its time in:

* ``pool_view_s``         — TxPool adds interleaved with
  ``transactions_with_arrival()`` views (the HMS view path);
* ``keccak_bulk_mbps``    — single-hasher absorption throughput (higher is
  better; every other metric is seconds, lower is better);
* ``keccak_small_s``      — many distinct small messages (the cache-miss
  path every fresh transaction hash takes);
* ``figure2_cell_s``      — one end-to-end market-workload cell through
  :func:`repro.api.engine.run_simulation`;
* ``sequential_history_s``— one sequential-history run (single sender,
  nonce-ordered, the paper's Section V sanity experiment).

The two end-to-end benchmarks also record a SHA-256 checksum of their
``SimulationResult.summary()`` so any optimisation that changes observable
output (roots, metrics, sweep rows) is caught immediately: the checksum must
be byte-identical across harness versions for identical specs.

Baseline protocol: the first run (or ``--record-baseline``) stores its
timings under ``"baseline"``; later runs keep that baseline, update
``"current"``, and report per-metric ``"speedup"`` (baseline / current for
seconds-metrics, current / baseline for throughput metrics).

Usage::

    PYTHONPATH=src python benchmarks/substrate_perf.py            # full grid
    PYTHONPATH=src python benchmarks/substrate_perf.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, Tuple

from repro.crypto import keccak as keccak_module
from repro.crypto.keccak import Keccak256
from repro.txpool.pool import TxPool

SECONDS_METRICS = {
    "pool_view_s",
    "keccak_small_s",
    "figure2_cell_s",
    "sequential_history_s",
}
THROUGHPUT_METRICS = {"keccak_bulk_mbps"}


def _clear_hash_cache() -> None:
    """Restore cold-start process state so every timed section starts cold.

    Delegates to the shared lifecycle helper (which drops every registered
    process memo) with a keccak-only fallback so the harness can still time
    builds that predate ``repro.api.lifecycle``.
    """
    try:
        from repro.api.lifecycle import reset_process_caches
    except ImportError:  # pre-lifecycle-module builds
        keccak_module.clear_hash_cache()
    else:
        reset_process_caches()


# -- micro benchmarks ---------------------------------------------------------------


def bench_pool_view(num_transactions: int, views_per_add: int) -> float:
    """TxPool adds interleaved with full HMS-style views."""
    from repro.chain.transaction import Transaction
    from repro.crypto.addresses import address_from_label

    senders = [address_from_label(f"bench/sender-{index}") for index in range(8)]
    transactions = [
        Transaction(
            sender=senders[index % len(senders)],
            nonce=index // len(senders),
            gas_price=1 + index % 7,
            gas_limit=21_000,
            to=senders[(index + 1) % len(senders)],
            value=index,
        )
        for index in range(num_transactions)
    ]
    for transaction in transactions:  # pre-hash outside the timed section
        transaction.hash
    pool = TxPool()
    started = time.perf_counter()
    for index, transaction in enumerate(transactions):
        pool.add(transaction, arrival_time=float(index))
        for _ in range(views_per_add):
            pool.transactions_with_arrival()
    return time.perf_counter() - started


def bench_keccak_bulk(megabytes: float) -> float:
    """Absorption throughput in MB/s over one long message."""
    data = bytes(range(256)) * int(megabytes * 1024 * 1024 / 256)
    hasher = Keccak256()
    started = time.perf_counter()
    hasher.update(data)
    hasher.digest()
    elapsed = time.perf_counter() - started
    return (len(data) / (1024 * 1024)) / elapsed


def bench_keccak_small(num_messages: int) -> float:
    """Hash ``num_messages`` distinct 64-byte messages (cache misses)."""
    messages = [hashlib.sha256(b"keccak-small-%d" % index).digest() * 2 for index in range(num_messages)]
    _clear_hash_cache()
    keccak256 = keccak_module.keccak256
    started = time.perf_counter()
    for message in messages:
        keccak256(message)
    return time.perf_counter() - started


# -- end-to-end benchmarks ----------------------------------------------------------


def _summary_checksum(summary: Dict[str, Any]) -> str:
    return hashlib.sha256(
        json.dumps(summary, sort_keys=True).encode("utf-8")
    ).hexdigest()


def bench_figure2_cell(num_buys: int) -> Tuple[float, str]:
    """One market-workload Figure-2 cell, end to end through the facade."""
    from repro.api import Simulation, run_simulation

    # Every market parameter spelled out: the checksum covers the spec's
    # rendering, which lists exactly the parameters given.
    spec = (
        Simulation.builder()
        .scenario("sereth_client")
        .workload(
            "market",
            num_buys=num_buys,
            buys_per_set=4.0,
            submission_interval=1.0,
            start_time=30.0,
            initial_price=100,
            price_max_step=5,
            num_buyers=4,
        )
        .miners(2)
        .clients(2)
        .seed(1234)
        .build()
    )
    _clear_hash_cache()
    started = time.perf_counter()
    result = run_simulation(spec)
    elapsed = time.perf_counter() - started
    return elapsed, _summary_checksum(result.summary())


def bench_sequential_history(num_pairs: int) -> Tuple[float, str]:
    """The single-sender sequential-history experiment, end to end."""
    from repro.api import Simulation, run_simulation

    spec = (
        Simulation.builder()
        .scenario("geth_unmodified")
        .workload("sequential", num_pairs=num_pairs, submission_interval=1.0)
        .miners(1)
        .clients(1)
        .gossip(0.06, 0.04)
        .miner_policy("random")
        .seed(7)
        .build()
    )
    _clear_hash_cache()
    started = time.perf_counter()
    result = run_simulation(spec)
    elapsed = time.perf_counter() - started
    return elapsed, _summary_checksum(result.summary())


# -- harness ------------------------------------------------------------------------


def run_benchmarks(quick: bool, repeats: int) -> Dict[str, Any]:
    """Run the full grid and return ``{"metrics": ..., "checksums": ..., ...}``."""
    if quick:
        sizes = {
            "pool_transactions": 300,
            "views_per_add": 1,
            "keccak_megabytes": 0.25,
            "keccak_messages": 600,
            "figure2_buys": 30,
            "sequential_pairs": 10,
        }
    else:
        sizes = {
            "pool_transactions": 1200,
            "views_per_add": 2,
            "keccak_megabytes": 1.0,
            "keccak_messages": 3000,
            "figure2_buys": 80,
            "sequential_pairs": 25,
        }

    checksums: Dict[str, str] = {}

    def figure2() -> float:
        elapsed, checksum = bench_figure2_cell(sizes["figure2_buys"])
        checksums["figure2_cell"] = checksum
        return elapsed

    def sequential() -> float:
        elapsed, checksum = bench_sequential_history(sizes["sequential_pairs"])
        checksums["sequential_history"] = checksum
        return elapsed

    grid: Dict[str, Callable[[], float]] = {
        "pool_view_s": lambda: bench_pool_view(
            sizes["pool_transactions"], sizes["views_per_add"]
        ),
        "keccak_bulk_mbps": lambda: bench_keccak_bulk(sizes["keccak_megabytes"]),
        "keccak_small_s": lambda: bench_keccak_small(sizes["keccak_messages"]),
        "figure2_cell_s": figure2,
        "sequential_history_s": sequential,
    }

    metrics: Dict[str, float] = {}
    for name, runner in grid.items():
        samples = [runner() for _ in range(repeats)]
        # Best-of-N: the minimum is the least noisy estimator for wall time,
        # the maximum for throughput.
        metrics[name] = (
            max(samples) if name in THROUGHPUT_METRICS else min(samples)
        )
        print(f"  {name:24s} {metrics[name]:10.4f}")

    return {"sizes": sizes, "metrics": metrics, "checksums": checksums}


def compute_speedup(baseline: Dict[str, float], current: Dict[str, float]) -> Dict[str, float]:
    speedup: Dict[str, float] = {}
    for name, current_value in current.items():
        baseline_value = baseline.get(name)
        if not baseline_value or not current_value:
            continue
        if name in THROUGHPUT_METRICS:
            speedup[name] = round(current_value / baseline_value, 3)
        else:
            speedup[name] = round(baseline_value / current_value, 3)
    return speedup


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="reduced grid for CI smoke runs")
    parser.add_argument("--repeats", type=int, default=3, help="samples per benchmark (best-of)")
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_substrate.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--record-baseline",
        action="store_true",
        help="store this run as the baseline (overwriting any existing one)",
    )
    arguments = parser.parse_args()

    print(f"substrate benchmarks ({'quick' if arguments.quick else 'full'} grid, "
          f"best of {arguments.repeats}):")
    run = run_benchmarks(arguments.quick, arguments.repeats)

    report: Dict[str, Any] = {}
    if arguments.output.exists():
        report = json.loads(arguments.output.read_text(encoding="utf-8"))

    if arguments.record_baseline or "baseline" not in report:
        report["baseline"] = run
    report["current"] = run
    report["speedup"] = compute_speedup(
        report["baseline"]["metrics"], run["metrics"]
    )
    baseline_checksums = report["baseline"].get("checksums", {})
    report["output_identical_to_baseline"] = (
        baseline_checksums == run["checksums"]
        if report["baseline"]["sizes"] == run["sizes"]
        else None
    )

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
