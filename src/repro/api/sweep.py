"""The sweep engine: expand seeded grid cells into specs and run them in parallel.

A :class:`Sweep` is a list of grid cells, each a ``(coordinates, cell spec)``
pair, repeated over ``trials`` seeded trials.  The cells come from one of
two declarations:

* ``Sweep(base).over(...)`` — a cartesian grid over a base
  :class:`SimulationSpec`, varying any combination of ``scenario``,
  spec-level fields (``block_interval``, ``num_miners``…), or workload
  parameters (``buys_per_set``…);
* :meth:`Sweep.from_cells` — an explicit, ordered cell list under a seed
  namespace, for grids that are not a product (the attack matrix's control
  row, one ablation's scenario subset).

Either way one expander turns every cell into jobs: trial ``t`` of a cell
runs ``cell_spec.with_seed(s)`` with ``s`` derived from the root seed and
the cell's coordinates, tagged ``{**coordinates, "trial": t, "seed": s}``.
So the same sweep produces the same specs (and therefore the same metrics)
whether it runs serially or on a ``multiprocessing`` pool.

    sweep = (
        Sweep(base_spec)
        .over(scenario=["geth_unmodified", "sereth_client", "semantic_mining"],
              buys_per_set=[1.0, 2.0, 10.0])
        .trials(3)
    )
    result = sweep.run(workers=4)
    ResultFrame.from_sweep(result).to_csv("figure2.csv")
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
from contextlib import contextmanager
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..experiments.scenario import Scenario
from .checkpoint import SweepCheckpoint, sweep_digest
from .frame import _deliver
from .seeding import derive_seed
from .spec import SimulationSpec

__all__ = ["Sweep", "SweepResult", "SweepRow", "apply_dimension"]

Cell = Tuple[Dict[str, Any], SimulationSpec]
"""One grid cell: its coordinates (the tags every trial carries) and its spec."""
Job = Tuple[SimulationSpec, Dict[str, Any]]
"""One seeded trial of a cell: the spec to run and its tags."""


def apply_dimension(spec: SimulationSpec, name: str, value: Any) -> SimulationSpec:
    """Apply one named knob to a spec: a spec field (canonicalised and
    validated by the field's own declaration, so ``scenario`` may be a
    registered name) or — anything else — a workload parameter.  Shared by
    the sweep grid expander and the experiment engine's scalar overrides."""
    if name in _SPEC_FIELD_NAMES:
        return replace(spec, **{name: value})
    return spec.with_params(**{name: value})


_SPEC_FIELD_NAMES = {spec_field.name for spec_field in dataclass_fields(SimulationSpec)}


_PROCESS_SIMULATOR = None
"""The per-process reusable event loop for warm sweep workers (lazily built;
``Simulator.reset`` drains it between trials)."""


def _process_simulator():
    global _PROCESS_SIMULATOR
    if _PROCESS_SIMULATOR is None:
        from ..net.sim import Simulator

        _PROCESS_SIMULATOR = Simulator()
    return _PROCESS_SIMULATOR


@contextmanager
def _job_map(workers: int) -> Iterator[Callable[..., Iterable[Any]]]:
    """The ordered ``map`` a run's jobs go through: the builtin when serial,
    a process pool's ``imap`` when parallel (it streams rows back in job
    order, so a checkpointed run records each row as it lands).

    On success the pool's workers exit through their sentinel (``close``
    then ``join``).  ``Pool.__exit__`` would ``terminate`` them instead: a
    SIGTERM can land while a worker runs a Python-level signal handler or
    holds a queue lock, and leave a sibling blocked on it.  On an error the
    pool is still terminated."""
    if workers <= 1:
        yield map
        return
    pool = multiprocessing.Pool(processes=workers)
    try:
        yield pool.imap
    except BaseException:
        pool.terminate()
        raise
    pool.close()
    pool.join()


def _run_job(job: Job) -> Dict[str, Any]:
    """Worker entry point: run one spec and return its picklable row.

    Workers are deliberately kept *warm* between jobs: the process memos
    (keccak digests, genesis templates — each a ``repro.memo.bounded_memo``)
    hold pure input->output pairs under a fixed cap, so leaving them
    populated across a grid's trials changes nothing observable while saving
    every repeated hash and genesis build.  Wire encodings live on the
    gossiped objects themselves, so they go when the trial's result does.
    """
    from .engine import run_simulation

    spec, tags = job
    # The run drains the simulator's queue, so a warm worker holds no
    # finished trial between jobs.
    return {"tags": tags, "summary": run_simulation(spec, simulator=_process_simulator()).summary()}


def _seeded(
    cells: Iterable[Cell],
    trials: int,
    seed_of: Callable[[Dict[str, Any], SimulationSpec, int], int],
) -> List[Job]:
    """The one expander: every cell repeated ``trials`` times, trial ``t``
    running under ``seed_of(coordinates, cell_spec, t)`` and tagged
    ``{**coordinates, "trial": t, "seed": seed}``."""
    jobs: List[Job] = []
    for coordinates, cell_spec in cells:
        for trial in range(trials):
            seed = seed_of(coordinates, cell_spec, trial)
            jobs.append(
                (cell_spec.with_seed(seed), {**coordinates, "trial": trial, "seed": seed})
            )
    return jobs


@dataclass
class SweepRow:
    """One job's outcome: its tags plus the run's summary."""

    tags: Dict[str, Any]
    summary: Dict[str, Any]


@dataclass
class SweepResult:
    """Every row of a sweep, in job order — the raw record a checkpoint
    stores and the golden checksum pins.  Analyse it through
    :meth:`ResultFrame.from_sweep <repro.api.frame.ResultFrame.from_sweep>`."""

    rows: List[SweepRow] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[SweepRow]:
        return iter(self.rows)

    def to_json(self, path: Optional[Union[str, Path]] = None) -> str:
        """Serialize every row with sorted keys (so exported artifacts diff
        cleanly whatever the dimension declaration order); written to
        ``path`` if given."""
        records = [{"tags": row.tags, "summary": row.summary} for row in self.rows]
        return _deliver(json.dumps(records, indent=2, sort_keys=True) + "\n", path)


class Sweep:
    """Expands seeded grid cells into jobs and executes them."""

    def __init__(self, base: SimulationSpec) -> None:
        self.base = base
        self._dimensions: Dict[str, List[Any]] = {}
        self._trials = 1
        self._explicit_jobs: Optional[List[Job]] = None

    # -- construction -----------------------------------------------------------------

    @classmethod
    def from_specs(cls, jobs: Sequence[Job]) -> "Sweep":
        """A sweep over pre-expanded (spec, tags) jobs — for callers that need
        exact control over every spec (e.g. regenerating the paper's seeds)."""
        if not jobs:
            raise ValueError("a sweep needs at least one job")
        sweep = cls(jobs[0][0])
        sweep._explicit_jobs = [(spec, dict(tags)) for spec, tags in jobs]
        return sweep

    @classmethod
    def from_cells(
        cls, namespace: str, root_seed: int, trials: int, cells: Sequence[Cell]
    ) -> "Sweep":
        """A sweep over an ordered list of ``(coordinates, cell spec)`` cells.

        Trial ``t`` of a cell runs under ``derive_seed(root_seed, namespace,
        *coordinates.values(), t)``: a list rather than a product, because
        not every grid is one (a control row, a per-ablation scenario set).
        """
        if trials <= 0:
            raise ValueError("trials must be positive")
        return cls.from_specs(
            _seeded(
                cells,
                trials,
                lambda coordinates, _spec, trial: derive_seed(
                    root_seed, namespace, *coordinates.values(), trial
                ),
            )
        )

    def over(self, **dimensions: Iterable[Any]) -> "Sweep":
        """Add grid dimensions: ``scenario``, spec fields, or workload params."""
        for name, values in dimensions.items():
            values = list(values)
            if not values:
                raise ValueError(f"sweep dimension {name!r} has no values")
            self._dimensions[name] = values
        return self

    def trials(self, count: int) -> "Sweep":
        if count <= 0:
            raise ValueError("trials must be positive")
        self._trials = count
        return self

    def observed(self, trace_dir: Optional[Union[str, Path]] = None) -> "Sweep":
        """A copy of this sweep with every job running under the ``repro.obs``
        tracer: each row's summary gains an ``observability`` key, and
        ``trace_dir`` (if given) collects one JSONL + Chrome-trace file pair
        per job, named by the job spec's content digest."""
        directory = str(trace_dir) if trace_dir is not None else None
        return Sweep.from_specs(
            [
                (replace(spec, observe=True, trace_dir=directory), tags)
                for spec, tags in self.jobs()
            ]
        )

    # -- expansion --------------------------------------------------------------------

    def jobs(self) -> List[Job]:
        """The fully expanded, deterministically seeded (spec, tags) list."""
        if self._explicit_jobs is not None:
            return [(spec, dict(tags)) for spec, tags in self._explicit_jobs]
        names = list(self._dimensions)
        cells: List[Cell] = []
        for combo in itertools.product(*(self._dimensions[name] for name in names)):
            cell_spec = self.base
            coordinates: Dict[str, Any] = {}
            for name, value in zip(names, combo):
                cell_spec = apply_dimension(cell_spec, name, value)
                coordinates[name] = value.name if isinstance(value, Scenario) else value
            cells.append((coordinates, cell_spec))
        return _seeded(
            cells,
            self._trials,
            lambda coordinates, cell_spec, trial: derive_seed(
                self.base.seed,
                cell_spec.scenario.name,
                cell_spec.workload,
                tuple(sorted((key, repr(value)) for key, value in coordinates.items())),
                trial,
            ),
        )

    # -- execution --------------------------------------------------------------------

    def run(
        self,
        workers: int = 1,
        checkpoint: Optional[Union[str, Path]] = None,
    ) -> SweepResult:
        """Execute every job; ``workers > 1`` uses a multiprocessing pool.

        Results are deterministic and identical across worker counts: each
        job's spec fully seeds its run, and rows keep the expansion order.

        ``checkpoint`` names a JSONL file keyed by the job list's content
        digest: every completed row is appended as it finishes, and a re-run
        against the same file executes only the rows the file is missing.
        Serial, parallel, and resumed runs all produce the same rows, so
        their exports are byte-identical.
        """
        jobs = self.jobs()
        store = None
        pending = list(range(len(jobs)))
        if checkpoint is not None:
            store = SweepCheckpoint.load(checkpoint, sweep_digest(jobs), len(jobs))
            store.begin()
            pending = store.missing()
        with _job_map(workers if pending else 1) as job_map:
            raw_rows = job_map(_run_job, [jobs[index] for index in pending])
            if store is None:
                return SweepResult(rows=[SweepRow(**raw) for raw in raw_rows])
            for index, raw in zip(pending, raw_rows):
                store.record(index, raw["tags"], raw["summary"])
        return SweepResult(rows=[SweepRow(**store.row(index)) for index in range(len(jobs))])
