"""Ablation sweeps for the factors the paper discusses qualitatively (Section V-C).

``repro run ablation --set name=<which>`` varies one knob of the market
experiment and reports the buy transaction efficiency, giving quantitative
backing to the paper's prose:

* ``miner_fraction`` — "if only a fraction of the miners were assisting ...
  there would still be benefits proportional to the participation" (A1).
* ``gossip`` — "or if communication of the TxPool were impeded among the
  Sereth enabled peers" (A2).
* ``submission_interval`` — "transaction efficiency becomes more sensitive
  to the transaction interval" at high buy ratios (A3).
* ``block_interval`` — the reparameterization discussion: HMS reduces the
  significance of the block interval (A4).
"""

from __future__ import annotations

from ..api.experiment import Experiment, ExperimentOptions, register_experiment
from ..api.frame import ResultFrame
from ..api.spec import SimulationSpec
from ..api.sweep import Sweep
from .claims import ablation_claims
from .scenario import GETH_UNMODIFIED, SEMANTIC_MINING, SERETH_CLIENT_SCENARIO

__all__ = ["AblationExperiment", "ABLATION_NAMES"]

MARKET_PARAMS = {
    "buys_per_set": 1.0,
    "submission_interval": 1.0,
    "start_time": 30.0,
    "initial_price": 100,
    "price_max_step": 5,
    "num_buyers": 4,
}
"""Every market-workload parameter, spelled out in each ablation spec: the
spec digests (and so checkpoints and exports) key on the full set."""

ABLATION_NAMES = ("miner_fraction", "gossip", "submission_interval", "block_interval")


@register_experiment
class AblationExperiment(Experiment):
    """All four ablation sweeps behind one registered experiment.

    ``repro run ablation --set name=<which>`` picks the sweep
    (:data:`ABLATION_NAMES`; default ``miner_fraction``).  Each cell runs the
    market workload with one knob varied, tagged ``(ablation, scenario,
    parameter, trial)``, with per-cell seeds derived from the root seed and
    the cell coordinates.
    """

    name = "ablation"
    description = (
        "One-dimensional ablations of the market experiment (A1-A4): "
        "miner_fraction | gossip | submission_interval | block_interval"
    )
    default_trials = 2
    smoke_trials = 1
    default_seed = 0
    claims = ablation_claims()
    export_columns = (
        "ablation",
        "scenario",
        "parameter",
        "trial",
        "seed",
        "eta",
        "blocks_produced",
        "simulated_seconds",
    )

    def _cells(self, which: str, smoke: bool):
        """(scenario label, parameter value, scenario object, overrides) for
        every grid cell of the chosen ablation; an override names a market
        parameter or a spec field."""
        if which == "miner_fraction":
            values = (0.0, 1.0) if smoke else (0.0, 0.25, 0.5, 0.75, 1.0)
            return [
                (
                    "semantic_mining",
                    value,
                    SEMANTIC_MINING.with_semantic_fraction(value),
                    {"num_miners": 4, "buys_per_set": 2.0},
                )
                for value in values
            ]
        if which == "gossip":
            values = (0.05, 2.0) if smoke else (0.05, 0.5, 2.0, 5.0)
            return [
                (
                    scenario.name,
                    value,
                    scenario,
                    {
                        "gossip_latency": value,
                        "gossip_jitter": value / 2,
                        "buys_per_set": 2.0,
                    },
                )
                for scenario in (SERETH_CLIENT_SCENARIO, SEMANTIC_MINING)
                for value in values
            ]
        if which == "submission_interval":
            values = (0.25, 2.0) if smoke else (0.25, 0.5, 1.0, 2.0)
            return [
                (
                    scenario.name,
                    value,
                    scenario,
                    {"submission_interval": value, "buys_per_set": 10.0},
                )
                for scenario in (GETH_UNMODIFIED, SERETH_CLIENT_SCENARIO)
                for value in values
            ]
        if which == "block_interval":
            values = (5.0, 30.0) if smoke else (5.0, 13.0, 30.0, 60.0)
            return [
                (
                    scenario.name,
                    value,
                    scenario,
                    {"block_interval": value, "buys_per_set": 4.0},
                )
                for scenario in (GETH_UNMODIFIED, SERETH_CLIENT_SCENARIO, SEMANTIC_MINING)
                for value in values
            ]
        raise KeyError(f"unknown ablation {which!r}; expected one of {ABLATION_NAMES}")

    def plan(self, options: ExperimentOptions) -> Sweep:
        which = options.override("name", "miner_fraction")
        params = dict(MARKET_PARAMS, num_buys=30 if options.smoke else 100)
        cells = []
        for label, value, scenario, overrides in self._cells(which, options.smoke):
            cell_params, fields = dict(params), {}
            for key, override in overrides.items():
                (cell_params if key in cell_params else fields)[key] = override
            spec = SimulationSpec(
                scenario=scenario, workload="market", workload_params=cell_params, **fields
            )
            cells.append(({"ablation": which, "scenario": label, "parameter": value}, spec))
        return Sweep.from_cells("ablation", self.seed(options), self.trials(options), cells)

    def analyze(self, frame: ResultFrame, options: ExperimentOptions) -> ResultFrame:
        return frame.derive(
            eta=lambda row: row["summary"]["reports"]["buy"]["success_rate"],
        )
