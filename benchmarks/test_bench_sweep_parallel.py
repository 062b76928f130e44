"""Sweep-engine parallelism smoke benchmark.

Times a 3-scenario x 3-ratio market sweep through ``repro.api.Sweep`` on a
multiprocessing pool and checks the facade's core guarantee along the way:
the parallel run's metrics are byte-identical to the serial run's, because
every grid cell's spec fully seeds its own simulation.
"""

from __future__ import annotations

import pytest

from repro.api import Simulation, Sweep
from repro.experiments.reporting import emit_block

WORKERS = 4


def build_sweep() -> Sweep:
    base = (
        Simulation.builder()
        .scenario("geth_unmodified")
        .workload("market", num_buys=30, num_buyers=2)
        .miners(1)
        .clients(2)
        .seed(11)
        .build()
    )
    return (
        Sweep(base)
        .over(
            scenario=["geth_unmodified", "sereth_client", "semantic_mining"],
            buys_per_set=[1.0, 2.0, 10.0],
        )
        .trials(1)
    )


@pytest.mark.benchmark(group="sweep")
def test_bench_parallel_sweep_matches_serial(benchmark):
    serial = build_sweep().run(workers=1)
    parallel = benchmark.pedantic(
        lambda: build_sweep().run(workers=WORKERS), rounds=1, iterations=1
    )
    assert serial.to_json() == parallel.to_json(), "parallel sweep diverged from serial"

    rows = [
        f"{row.tags['scenario']:>16}  ratio {row.tags['buys_per_set']:>4}:1  "
        f"eta = {row.summary['efficiency']:.1%}"
        for row in parallel
    ]
    emit_block(
        f"Sweep engine — 9 runs on {WORKERS} workers (byte-identical to serial)",
        "\n".join(rows),
    )
    benchmark.extra_info["runs"] = len(parallel)
    benchmark.extra_info["workers"] = WORKERS
