"""The auction workload plus the parallel sweep engine, end to end.

The ``auction`` workload is a ~50-line plugin (see
``repro/workloads/auction.py``): bidders race an English auction whose accepted
bids advance a hash mark, so HMS can serialize the pending bid stream and a
bidder can outbid the *pending* high bid instead of a stale committed one.
This example sweeps scenario x contention through the ``Sweep`` engine,
optionally on a multiprocessing pool, and exports the grid as CSV.

Run with:  python examples/auction_sweep.py [--workers 4] [--csv auction.csv]
"""

from __future__ import annotations

import argparse

from repro.api import ResultFrame, Simulation, Sweep
from repro.experiments.reporting import emit_block, format_percentage, format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--csv", default=None, help="write the grid to this CSV file")
    arguments = parser.parse_args()

    base = (
        Simulation.builder()
        .scenario("geth_unmodified")
        .workload("auction", num_bidders=4, bids_per_bidder=3)
        .miners(1)
        .clients(2)
        .seed(17)
        .build()
    )
    sweep = (
        Sweep(base)
        .over(
            scenario=["geth_unmodified", "sereth_client", "semantic_mining"],
            bid_interval=[1.0, 4.0],
        )
        .trials(2)
    )
    frame = ResultFrame.from_sweep(sweep.run(workers=arguments.workers))
    if arguments.csv:
        frame.to_csv(arguments.csv)

    rows = []
    for scenario in ("geth_unmodified", "sereth_client", "semantic_mining"):
        for interval in (1.0, 4.0):
            mean = frame.mean("efficiency", scenario=scenario, bid_interval=interval)
            rows.append([scenario, f"{interval:g}", format_percentage(mean)])
    emit_block(
        f"Auction bid success rate ({len(frame)} runs, {arguments.workers} workers)",
        format_table(["scenario", "bid interval (s)", "accepted bids"], rows)
        + "\nREAD-UNCOMMITTED bidders outbid the pending high bid; committed-state "
        "bidders keep referencing stale marks and lose.",
    )


if __name__ == "__main__":
    main()
