"""The attack matrix: every adversary against every defense configuration.

Section V-B's claim — mark-bound offers structurally prevent frontrunning —
is only as strong as the set of attacks it is tested against.  This
experiment turns the security evaluation from one anecdote into a grid:
each registered adversary runs against each defense configuration (the
scenario axis: committed-read baseline, HMS view, HMS + semantic mining) on
the attacker-free ``victim_market`` workload, and every cell reports the
attack's attempts, successes, profit, and the victim-harm it caused.

Two notions of harm are tracked per cell:

* ``victim_harm`` — victim buys that did not fill at the observed terms
  (rejected or never committed).  Read latency alone causes some of this in
  the committed-read baseline, which is why the matrix includes a
  ``(control)`` row with no adversary at all: the attack's *marginal* harm
  is the cell minus the control.
* ``overpaid`` — victim buys filled at terms the victim did not observe.
  The paper's structural claim says this is zero in every cell; the
  chain auditor independently verifies it.

The headline claim gate (:func:`~repro.experiments.claims.attack_matrix_claims`):
under the full HMS defense (semantic mining), the displacement attack —
the paper's Section II-F frontrunner — causes zero victim harm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

# api submodule imports (not the package root): this module is pulled in by
# repro.experiments, which repro.api's own init loads for the scenario axis.
from ..adversary import ADVERSARY_REGISTRY
from ..api.builder import Simulation
from ..api.experiment import Experiment, ExperimentOptions, register_experiment
from ..api.frame import ResultFrame
from ..api.registry import SCENARIO_REGISTRY
from ..api.spec import SimulationSpec
from ..api.sweep import Sweep
from ..adversary.strategies import VICTIM_BUY_LABEL
from ..workloads.victim_market import victim_columns
from .claims import attack_matrix_claims

__all__ = [
    "DEFAULT_ADVERSARIES",
    "DEFAULT_DEFENSES",
    "HMS_DEFENSE",
    "CONTROL_ROW",
    "AttackMatrixConfig",
    "AttackMatrixExperiment",
]

DEFAULT_ADVERSARIES: Tuple[str, ...] = (
    "displacement",
    "insertion",
    "suppression",
    "censoring_miner",
    "stale_oracle",
)
DEFAULT_DEFENSES: Tuple[str, ...] = (
    "geth_unmodified",
    "sereth_client",
    "semantic_mining",
)
HMS_DEFENSE = "semantic_mining"
"""The full HMS deployment (view + semantic mining) — the paper's defense."""

CONTROL_ROW = "(control)"
"""Row label for the adversary-free control cells."""


@dataclass(frozen=True)
class AttackMatrixConfig:
    """Shape of the attack-matrix sweep."""

    adversaries: Tuple[str, ...] = DEFAULT_ADVERSARIES
    defenses: Tuple[str, ...] = DEFAULT_DEFENSES
    num_victim_buys: int = 20
    buy_interval: float = 2.0
    reprice_interval: Optional[float] = None
    """``None`` (default) reproduces the paper's V-B market: one opening set,
    then only attackers move the price — the regime in which semantic mining
    drives frontrunning harm to zero.  Setting an interval makes the owner
    keep repricing, which gives delay-based attacks (suppression, censorship,
    stale oracle) stale terms to exploit — but concurrent owner writes also
    fork the HMS series under attack, so harm is no longer expected to be
    zero anywhere; delay attacks additionally show up in the latency column
    either way."""
    block_interval: float = 13.0
    num_miners: int = 2
    """Two miners so a censoring miner controls half the hash power, not all."""
    max_transactions_per_block: Optional[int] = 12
    """Finite block capacity so fee-bump suppression has something to exhaust."""
    trials: int = 1
    include_control: bool = True
    seed: int = 11

    def __post_init__(self) -> None:
        if not self.adversaries:
            raise ValueError("the matrix needs at least one adversary")
        if not self.defenses:
            raise ValueError("the matrix needs at least one defense")
        for name in self.adversaries:
            ADVERSARY_REGISTRY.get(name)  # fail fast on unknown strategies
        for name in self.defenses:
            SCENARIO_REGISTRY.get(name)  # and on unknown defense scenarios
        if self.trials <= 0:
            raise ValueError("trials must be positive")


@register_experiment
class AttackMatrixExperiment(Experiment):
    """The attack matrix: every adversary against every defense (plus a
    control row), claim-gated on the paper's Section V-B cell
    and the no-overpayment invariant across the whole grid.

    Overrides: ``adversaries`` / ``defenses`` (lists of registered names),
    ``buys`` (victim buys per cell), ``reprice_interval``, ``control``
    (set falsy to drop the adversary-free row).
    """

    name = "attack_matrix"
    description = (
        "Every registered adversary against every defense scenario on the "
        "attacker-free victim market"
    )
    default_trials = 1
    default_seed = 11
    claims = attack_matrix_claims()
    export_columns = (
        "adversary",
        "defense",
        "trial",
        "seed",
        "victim_submitted",
        "victim_filled",
        "victim_harm",
        "attempts",
        "successes",
        "profit",
        "victim_latency",
        "overpaid",
        "audit_clean",
    )

    def matrix_config(self, options: ExperimentOptions) -> AttackMatrixConfig:
        smoke = options.smoke
        return AttackMatrixConfig(
            adversaries=options.names(
                "adversaries", ("displacement", "insertion") if smoke else DEFAULT_ADVERSARIES
            ),
            defenses=options.names(
                "defenses", ("geth_unmodified", HMS_DEFENSE) if smoke else DEFAULT_DEFENSES
            ),
            num_victim_buys=options.override("buys", 8 if smoke else 20),
            reprice_interval=options.override("reprice_interval"),
            trials=self.trials(options),
            include_control=bool(options.override("control", True)),
            seed=self.seed(options),
        )

    def plan(self, options: ExperimentOptions) -> Sweep:
        config = self.matrix_config(options)
        rows = ([None] if config.include_control else []) + list(config.adversaries)
        return Sweep.from_cells(
            "attack-matrix",
            config.seed,
            config.trials,
            [
                (
                    {"adversary": adversary or CONTROL_ROW, "defense": defense},
                    _cell_spec(config, adversary, defense),
                )
                for adversary in rows
                for defense in config.defenses
            ],
        )

    def analyze(self, frame: ResultFrame, options: ExperimentOptions) -> ResultFrame:
        def attack_total(row, key):
            return sum(
                report[key] for report in row["summary"].get("adversaries", {}).values()
            )

        return frame.derive(
            **victim_columns(),
            victim_latency=lambda row: row["summary"]["reports"][VICTIM_BUY_LABEL][
                "mean_commit_latency"
            ],
            attempts=lambda row: attack_total(row, "attempts"),
            successes=lambda row: attack_total(row, "successes"),
            profit=lambda row: attack_total(row, "profit"),
            audit_clean=lambda row: row["summary"]["extras"].get("audit_clean", True),
        )


def _cell_spec(config: AttackMatrixConfig, adversary: Optional[str], defense: str) -> SimulationSpec:
    """The facade spec for one matrix cell (``adversary=None`` is the control);
    the sweep seeds each trial."""
    builder = (
        Simulation.builder()
        .scenario(defense)
        .workload(
            "victim_market",
            num_victim_buys=config.num_victim_buys,
            buy_interval=config.buy_interval,
            reprice_interval=config.reprice_interval,
        )
        .miners(config.num_miners)
        .clients(2)
        .block_interval(config.block_interval)
        .gossip(0.07, 0.05)
        .gas(max_transactions_per_block=config.max_transactions_per_block)
    )
    if adversary is not None:
        builder = builder.adversary(adversary)
    return builder.build()
