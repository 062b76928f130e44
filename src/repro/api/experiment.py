"""``repro.api.experiment`` — declarative experiments with one generic lifecycle.

An *experiment* declares what to run (a base spec plus sweep dimensions), how
to read the results (derived metric columns over a :class:`ResultFrame`),
what the paper promises (a tuple of :class:`Claim` gates), and what to write
out (an export schema).  One engine drives every experiment through the same
lifecycle::

    plan -> execute -> analyze -> check_claims -> export

so a new experiment is a ~50-line registered class, not a bespoke module
with its own runner, result dataclass, and CLI subcommand.

Quickstart — define, register, and run an experiment::

    from repro.api.experiment import (
        Claim, GridExperiment, register_experiment, run_experiment,
        ExperimentOptions,
    )

    @register_experiment
    class TicketRush(GridExperiment):
        name = "ticket_rush"
        description = "Ticket-sale efficiency across scenarios."
        workload = "ticket_sale"
        dimensions = {"scenario": ["geth_unmodified", "semantic_mining"]}
        default_trials = 2
        claims = (
            Claim(
                name="semantic mining wins",
                paper_value="HMS ordering commits more tickets",
                check=lambda frame: frame.mean("efficiency", scenario="semantic_mining")
                >= frame.mean("efficiency", scenario="geth_unmodified"),
            ),
        )

    run = run_experiment("ticket_rush", ExperimentOptions(workers=4))
    print(run.frame.pivot("scenario", "trial", "efficiency").to_markdown())
    assert run.passed

The same experiment is now available to the CLI as ``repro run ticket_rush``
(plus ``repro claims ticket_rush`` and ``repro list --experiments``).

Execution is **resumable**: pass ``ExperimentOptions(checkpoint=...)`` (or
``repro run <name> --checkpoint file.jsonl``) and every completed sweep cell
is appended to a JSONL file keyed by the grid's content digest; re-running
after an interruption executes only the missing cells and produces
byte-identical exports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..registry import Registry
from .frame import ResultFrame
from .spec import SimulationSpec
from .sweep import Sweep, SweepResult, apply_dimension

__all__ = [
    "Claim",
    "ClaimCheck",
    "EXPERIMENT_REGISTRY",
    "Experiment",
    "ExperimentOptions",
    "ExperimentRun",
    "GridExperiment",
    "execute_plan",
    "plan_experiment",
    "register_experiment",
    "run_experiment",
]


# ======================================================================================
# Claims
# ======================================================================================


@dataclass
class ClaimCheck:
    """Outcome of checking one claim against measured data."""

    claim: str
    paper_value: str
    measured_value: str
    holds: bool
    detail: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return {
            "claim": self.claim,
            "paper_value": self.paper_value,
            "measured_value": self.measured_value,
            "holds": self.holds,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class Claim:
    """One paper claim, checkable against an experiment's :class:`ResultFrame`.

    ``check`` receives the analyzed frame and returns either a bare bool, a
    ``(holds, measured_value)`` or ``(holds, measured_value, detail)`` tuple,
    or a fully formed :class:`ClaimCheck`; :meth:`evaluate` normalizes all of
    them.  A check that raises is reported as a failed claim rather than
    crashing the run (a claim gate should gate, not explode).
    """

    name: str
    paper_value: str
    check: Callable[[ResultFrame], Any]
    detail: str = ""

    def evaluate(self, frame: ResultFrame) -> ClaimCheck:
        try:
            outcome = self.check(frame)
        except Exception as error:  # noqa: BLE001 - the gate must not crash the run
            return ClaimCheck(
                claim=self.name,
                paper_value=self.paper_value,
                measured_value="<check raised>",
                holds=False,
                detail=f"{type(error).__name__}: {error}",
            )
        if isinstance(outcome, ClaimCheck):
            return outcome
        if isinstance(outcome, tuple):
            holds = bool(outcome[0])
            measured = str(outcome[1]) if len(outcome) > 1 else ""
            detail = str(outcome[2]) if len(outcome) > 2 else self.detail
        else:
            holds, measured, detail = bool(outcome), "", self.detail
        return ClaimCheck(
            claim=self.name,
            paper_value=self.paper_value,
            measured_value=measured,
            holds=holds,
            detail=detail,
        )


# ======================================================================================
# Options and the experiment protocol
# ======================================================================================


@dataclass
class ExperimentOptions:
    """Caller-side knobs common to every experiment run."""

    workers: int = 1
    smoke: bool = False
    """Run the experiment's reduced smoke grid (CI-sized, same claims)."""
    seed: Optional[int] = None
    """Root seed; ``None`` uses the experiment's default."""
    trials: Optional[int] = None
    """Seeded repetitions per grid cell; ``None`` uses the experiment's default."""
    checkpoint: Optional[Union[str, Path]] = None
    """JSONL checkpoint file for resumable execution (see the module docstring)."""
    overrides: Dict[str, Any] = field(default_factory=dict)
    """Extra knobs: a list value replaces/adds a sweep dimension, a scalar
    value is applied to the base spec (spec field or workload parameter).
    Every key must be consumed during :meth:`Experiment.plan` (via
    :meth:`override` or the grid machinery) — a leftover key is a typo, and
    :func:`run_experiment` refuses to run the wrong grid silently."""

    _consumed: "set" = field(default_factory=set, init=False, repr=False, compare=False)

    def override(self, key: str, default: Any = None) -> Any:
        """Read one override (recording that the experiment consumed it)."""
        self._consumed.add(key)
        return self.overrides.get(key, default)

    def names(self, key: str, default: Sequence[str]) -> Tuple[str, ...]:
        """One override as a tuple of names: a bare name (``--set
        adversaries=displacement``) is one name, not its characters."""
        value = self.override(key, default)
        return (value,) if isinstance(value, str) else tuple(value)

    def unconsumed_overrides(self) -> List[str]:
        """Override keys no code path read — misspelled or unsupported knobs."""
        return sorted(set(self.overrides) - self._consumed)


class Experiment:
    """Base class of the experiment protocol.

    Subclasses declare ``name``, ``description``, and ``claims``, implement
    :meth:`plan` (a grid, as :class:`GridExperiment` declares one, or an
    ordered cell list through :meth:`Sweep.from_cells
    <repro.api.sweep.Sweep.from_cells>`), and optionally refine
    :meth:`analyze` (derive metric columns) and ``export_columns`` (the
    flat export schema).  Register with
    :func:`register_experiment` and the generic engine, CLI, benchmarks,
    and CI all pick the experiment up by name.
    """

    name: str = ""
    description: str = ""
    claims: Tuple[Claim, ...] = ()
    export_columns: Optional[Tuple[str, ...]] = None
    """Columns of the flat (CSV/Markdown) export; ``None`` exports every
    scalar column in frame order."""
    default_seed: int = 11
    default_trials: int = 1
    smoke_trials: int = 1

    # -- lifecycle hooks ----------------------------------------------------------------

    def plan(self, options: ExperimentOptions) -> Sweep:
        """The fully expanded sweep this experiment runs."""
        raise NotImplementedError

    def execute(self, options: ExperimentOptions, sweep: Sweep) -> SweepResult:
        """Run the planned sweep and return its rows.

        The default is the shared sweep engine (parallel and/or resumed from
        a checkpoint per the options).  Experiments that need to *own*
        execution override this — e.g. ``horizon`` runs every leg in a fresh
        child process so each leg's peak RSS is measured in isolation — and
        still flow through the generic analyze/claims/export lifecycle.
        """
        return sweep.run(workers=options.workers, checkpoint=options.checkpoint)

    def analyze(self, frame: ResultFrame, options: ExperimentOptions) -> ResultFrame:
        """Derive the experiment's metric columns; default: the frame as-is."""
        return frame

    # -- shared helpers -----------------------------------------------------------------

    def seed(self, options: ExperimentOptions) -> int:
        return self.default_seed if options.seed is None else options.seed

    def trials(self, options: ExperimentOptions) -> int:
        if options.trials is not None:
            return options.trials
        return self.smoke_trials if options.smoke else self.default_trials


class GridExperiment(Experiment):
    """An experiment that is a parameter grid over one registered workload.

    Declare the workload, the base parameters, and the sweep dimensions as
    class attributes; :meth:`plan` assembles the spec and the sweep, applies
    smoke-mode reductions and caller overrides, and seeds everything
    deterministically through the sweep engine.
    """

    scenario: str = "geth_unmodified"
    workload: str = "market"
    base_params: Mapping[str, Any] = {}
    smoke_params: Mapping[str, Any] = {}
    """Merged over ``base_params`` when running the smoke grid."""
    spec_fields: Mapping[str, Any] = {}
    """Non-default :class:`SimulationSpec` fields (``num_miners``, ...)."""
    dimensions: Mapping[str, Sequence[Any]] = {}
    smoke_dimensions: Optional[Mapping[str, Sequence[Any]]] = None
    """Reduced dimensions for smoke mode; ``None`` keeps ``dimensions``."""

    def base_spec(self, options: ExperimentOptions) -> SimulationSpec:
        from .builder import check_plugins

        params = dict(self.base_params)
        if options.smoke:
            params.update(self.smoke_params)
        return check_plugins(
            SimulationSpec(
                scenario=self.scenario,
                workload=self.workload,
                workload_params=params,
                seed=self.seed(options),
                **self.spec_fields,
            )
        )

    def plan(self, options: ExperimentOptions) -> Sweep:
        dims: Dict[str, List[Any]] = {
            name: list(values)
            for name, values in (
                self.smoke_dimensions
                if options.smoke and self.smoke_dimensions is not None
                else self.dimensions
            ).items()
        }
        spec = self.base_spec(options)
        for key in options.overrides:
            value = options.override(key)
            if isinstance(value, (list, tuple)):
                dims[key] = list(value)
            elif key in dims:
                dims[key] = [value]
            else:
                spec = apply_dimension(spec, key, value)
        sweep = Sweep(spec)
        if dims:
            sweep = sweep.over(**dims)
        return sweep.trials(self.trials(options))


# ======================================================================================
# Registry
# ======================================================================================

EXPERIMENT_REGISTRY: Registry[Experiment] = Registry("experiment")
"""Every registered experiment, resolvable by name (CLI, engine, tests)."""


def register_experiment(cls: type) -> type:
    """Class decorator: instantiate the experiment and register it by name."""
    instance = cls()
    if not instance.name:
        raise ValueError(f"experiment class {cls.__name__} must declare a name")
    EXPERIMENT_REGISTRY.add(instance.name, instance)
    return cls


# ======================================================================================
# The generic lifecycle engine
# ======================================================================================


@dataclass
class ExperimentRun:
    """Everything one experiment run produced."""

    experiment: Experiment
    options: ExperimentOptions
    sweep_result: SweepResult
    frame: ResultFrame
    claim_checks: List[ClaimCheck]

    @property
    def passed(self) -> bool:
        """All claim gates hold (vacuously true for claimless experiments)."""
        return all(check.holds for check in self.claim_checks)

    def export_frame(self) -> ResultFrame:
        """The flat export view: the declared schema, or every scalar column."""
        columns = self.experiment.export_columns
        if columns is not None:
            return self.frame.select(*columns)
        if "summary" in self.frame.column_names:
            return self.frame.drop("summary")
        return self.frame

    def export(self, directory: Union[str, Path]) -> Dict[str, Path]:
        """Write the run's artifacts; returns ``{kind: path}``.

        ``rows.json`` / ``rows.csv`` / ``rows.md`` hold the export frame with
        sorted keys and stable column order, ``claims.json`` the claim gate
        outcomes — all byte-identical for identical results, which is how CI
        proves a resumed sweep equals an uninterrupted one.
        """
        import json

        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        flat = self.export_frame()
        name = self.experiment.name
        paths = {
            "json": target / f"{name}.json",
            "csv": target / f"{name}.csv",
            "markdown": target / f"{name}.md",
            "claims": target / f"{name}_claims.json",
        }
        flat.to_json(paths["json"])
        flat.to_csv(paths["csv"])
        flat.to_markdown(paths["markdown"])
        claims_text = json.dumps(
            [check.as_dict() for check in self.claim_checks], indent=2, sort_keys=True
        )
        paths["claims"].write_text(claims_text + "\n", encoding="utf-8")
        return paths


def plan_experiment(
    experiment: Union[str, Experiment],
    options: Optional[ExperimentOptions] = None,
) -> Tuple[Experiment, ExperimentOptions, Sweep]:
    """Resolve an experiment and expand its sweep, validating the options.

    This is the plan-time half of :func:`run_experiment`: an unknown
    experiment name raises ``KeyError`` and a leftover override raises
    ``ValueError`` *before* any cell executes, so callers (the CLI) can
    render those as usage errors while leaving execution errors untouched.
    """
    if isinstance(experiment, str):
        experiment = EXPERIMENT_REGISTRY.get(experiment)
    options = options or ExperimentOptions()
    sweep = experiment.plan(options)
    unknown = options.unconsumed_overrides()
    if unknown:
        raise ValueError(
            f"unknown override(s) for experiment {experiment.name!r}: "
            f"{', '.join(unknown)} (nothing in its plan consumed them)"
        )
    return experiment, options, sweep


def execute_plan(
    experiment: Experiment, options: ExperimentOptions, sweep: Sweep
) -> ExperimentRun:
    """Run a planned sweep through execute → analyze → check_claims."""
    sweep_result = experiment.execute(options, sweep)
    frame = experiment.analyze(ResultFrame.from_sweep(sweep_result), options)
    claim_checks = [claim.evaluate(frame) for claim in experiment.claims]
    return ExperimentRun(
        experiment=experiment,
        options=options,
        sweep_result=sweep_result,
        frame=frame,
        claim_checks=claim_checks,
    )


def run_experiment(
    experiment: Union[str, Experiment],
    options: Optional[ExperimentOptions] = None,
) -> ExperimentRun:
    """Drive one experiment through the generic lifecycle.

    ``plan`` expands the sweep, ``execute`` runs it (parallel and/or resumed
    from a checkpoint per the options), ``analyze`` lands the rows in a
    :class:`ResultFrame` and derives the experiment's metrics, and every
    registered :class:`Claim` is evaluated against the analyzed frame.
    """
    return execute_plan(*plan_experiment(experiment, options))
