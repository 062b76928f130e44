"""RAA as a lightweight oracle replacement: data latency comparison (paper §III-D).

Runs the registered ``oracle`` experiment: the same consumer workload
against two data paths on one simulated network — a conventional
request/response oracle contract (the consumer's request must commit, then
the operator's answer must commit) and Runtime Argument Augmentation (a
local view call answered by the peer's data service).  Prints the latency
distribution of both.  The same run is ``repro run oracle`` on the command
line.

Run with:  python examples/raa_oracle_comparison.py
"""

from __future__ import annotations

from repro.api import ExperimentOptions, run_experiment
from repro.experiments.reporting import emit_block, format_table


def main() -> None:
    options = ExperimentOptions(seed=21, overrides={"num_queries": 12, "query_interval": 8.0})
    row = run_experiment("oracle", options).frame.row(0)
    extras = row["summary"]["extras"]
    block_interval = row["summary"]["spec"]["block_interval"]

    oracle_sorted = sorted(extras["oracle_latencies"])
    rows = [
        ["RAA (local view call)", f"{row['mean_raa_latency']:.4f}", "-", "-"],
        [
            "Oracle round trip",
            f"{row['mean_oracle_latency']:.1f}",
            f"{oracle_sorted[0]:.1f}",
            f"{oracle_sorted[-1]:.1f}",
        ],
    ]
    emit_block(
        "Data latency: RAA vs a conventional blockchain oracle",
        format_table(["path", "mean (s)", "min (s)", "max (s)"], rows)
        + f"\n\nunanswered oracle requests: {row['oracle_unanswered']}"
        + "\nRAA delivers intra-block data immediately; the oracle needs on the order of a "
        + f"block interval ({block_interval:.0f}s) or more per query.",
    )


if __name__ == "__main__":
    main()
