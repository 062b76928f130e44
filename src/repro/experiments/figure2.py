"""Figure 2: transaction efficiency η versus the READ-UNCOMMITTED / WRITE ratio.

Sweeps the buy:set ratio for the three scenarios of the paper's evaluation
(``geth_unmodified``, ``sereth_client``, ``semantic_mining``), running
seeded trials per cell; the claim gates compare the per-cell mean
efficiencies against the paper's headline numbers.
"""

from __future__ import annotations

from ..api.experiment import ExperimentOptions, GridExperiment, register_experiment
from ..api.frame import ResultFrame
from .claims import figure2_claims

__all__ = ["Figure2Experiment", "DEFAULT_RATIOS"]

DEFAULT_RATIOS = (1.0, 2.0, 4.0, 10.0, 20.0)
"""Buy:set ratios swept; the paper varies sets from 100 down to 5 per 100 buys."""


@register_experiment
class Figure2Experiment(GridExperiment):
    """Figure 2 as a declarative grid: scenario x ratio, headline-claim gated.

    ``repro run figure2`` sweeps the grid through the generic experiment
    engine — resumable, frame-analyzed, and claim-checked by
    :func:`figure2_claims`.  Per-cell seeds come from the sweep engine's
    coordinate derivation, so the numbers are deterministic (serial ==
    parallel == resumed).
    """

    name = "figure2"
    description = (
        "Figure 2: transaction efficiency eta vs the READ-UNCOMMITTED/WRITE "
        "ratio across the three scenarios"
    )
    workload = "market"
    base_params = {"num_buys": 100, "buys_per_set": 1.0}
    smoke_params = {"num_buys": 30}
    dimensions = {
        "scenario": ["geth_unmodified", "sereth_client", "semantic_mining"],
        "buys_per_set": list(DEFAULT_RATIOS),
    }
    smoke_dimensions = {
        "scenario": ["geth_unmodified", "sereth_client", "semantic_mining"],
        "buys_per_set": [1.0, 10.0],
    }
    default_trials = 2
    smoke_trials = 2
    """Even the smoke grid keeps two trials: the headline claims are means
    over seeded repetitions, and a single 30-buy trial is too noisy to gate on."""
    default_seed = 7
    claims = figure2_claims()
    export_columns = (
        "scenario",
        "buys_per_set",
        "trial",
        "seed",
        "eta",
        "set_eta",
        "blocks_produced",
        "simulated_seconds",
    )

    def analyze(self, frame: ResultFrame, options: ExperimentOptions) -> ResultFrame:
        return frame.derive(
            eta=lambda row: row["summary"]["reports"]["buy"]["success_rate"],
            set_eta=lambda row: row["summary"]["reports"]["set"]["efficiency"],
        )
