"""Regenerate Figure 2: transaction efficiency vs READ-UNCOMMITTED/WRITE ratio.

Runs the registered ``figure2`` experiment — the dynamic-pricing market
workload for the three scenarios of the paper's evaluation (unmodified Geth,
Sereth client, semantic mining) across a sweep of buy:set ratios — and
prints the mean efficiency per cell and the headline-claim gates.  The same
run is ``repro run figure2`` on the command line.

Run with:  python examples/figure2_experiment.py                (reduced, ~30 s)
           python examples/figure2_experiment.py --full          (paper-sized sweep)
           python examples/figure2_experiment.py --full --workers 4   (parallel)
"""

from __future__ import annotations

import argparse

from repro.api import ExperimentOptions, run_experiment
from repro.experiments.reporting import emit_block, format_percentage, format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="run the paper-sized sweep (slower)")
    parser.add_argument("--seed", type=int, default=11, help="root random seed")
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the sweep (results are identical to serial)",
    )
    arguments = parser.parse_args()

    if arguments.full:
        options = ExperimentOptions(workers=arguments.workers, seed=arguments.seed, trials=5)
    else:
        options = ExperimentOptions(
            workers=arguments.workers,
            seed=arguments.seed,
            trials=2,
            overrides={"buys_per_set": [1.0, 2.0, 10.0, 20.0], "num_buys": 60, "num_buyers": 3},
        )
    run = run_experiment("figure2", options)

    table = run.frame.pivot(index="buys_per_set", columns="scenario", values="eta")
    scenarios = table.column_names[1:]
    rows = [
        [f"{row['buys_per_set']:g}:1"] + [format_percentage(row[name]) for name in scenarios]
        for row in table
    ]
    emit_block(
        "Figure 2 — transaction efficiency vs buy:set ratio "
        f"(mean of {run.experiment.trials(options)} trials)",
        format_table(["ratio (buys:set)"] + scenarios, rows),
    )

    rows = [
        [check.claim[:58], check.paper_value, check.measured_value, "yes" if check.holds else "NO"]
        for check in run.claim_checks
    ]
    emit_block(
        "Headline claims (Abstract / Section VII)",
        format_table(["claim", "paper", "measured", "holds"], rows),
    )


if __name__ == "__main__":
    main()
