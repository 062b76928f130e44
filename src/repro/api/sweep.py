"""The sweep engine: expand a parameter grid into specs and run them in parallel.

A :class:`Sweep` starts from a base :class:`SimulationSpec` and varies any
combination of dimensions — ``scenario``, spec-level fields (``block_interval``,
``num_miners``…), or workload parameters (``buys_per_set``…) — with ``trials``
seeded repetitions per grid cell.  Expansion is fully deterministic: every
cell receives a per-trial seed derived from the base seed and its coordinates,
so the same sweep produces the same specs (and therefore the same metrics)
whether it runs serially or on a ``multiprocessing`` pool.

    sweep = (
        Sweep(base_spec)
        .over(scenario=["geth_unmodified", "sereth_client", "semantic_mining"],
              buys_per_set=[1.0, 2.0, 10.0])
        .trials(3)
    )
    result = sweep.run(workers=4)
    result.to_csv("figure2.csv")
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import multiprocessing
from contextlib import contextmanager
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..experiments.scenario import Scenario
from .checkpoint import SweepCheckpoint, sweep_digest
from .seeding import derive_seed
from .spec import SimulationSpec

__all__ = ["EmptySelectionError", "Sweep", "SweepResult", "SweepRow", "apply_dimension"]


def apply_dimension(spec: SimulationSpec, name: str, value: Any) -> SimulationSpec:
    """Apply one named knob to a spec: a spec field (canonicalised and
    validated by the field's own declaration, so ``scenario`` may be a
    registered name) or — anything else — a workload parameter.  Shared by
    the sweep grid expander and the experiment engine's scalar overrides."""
    if name in _SPEC_FIELD_NAMES:
        return replace(spec, **{name: value})
    return spec.with_params(**{name: value})


class EmptySelectionError(KeyError):
    """A selection over sweep rows matched nothing usable.

    Subclasses :class:`KeyError` so callers that guarded against the old
    behaviour keep working; the message says whether no row matched at all
    or the matching rows simply carry no efficiency metric."""

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
def _worker_pool(workers: int) -> Iterator[multiprocessing.pool.Pool]:
    """A process pool whose workers, on success, exit through their sentinel
    (``close`` then ``join``).  ``Pool.__exit__`` would ``terminate`` them
    instead: a SIGTERM can land while a worker runs a Python-level signal
    handler or holds a queue lock, and leave a sibling blocked on it.  On an
    error the pool is still terminated."""
    pool = multiprocessing.Pool(processes=workers)
    try:
        yield pool
    except BaseException:
        pool.terminate()
        raise
    pool.close()
    pool.join()


def _run_job(job: Tuple[SimulationSpec, Dict[str, Any]]) -> Dict[str, Any]:
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
    result = run_simulation(spec, simulator=_process_simulator())
    return {"tags": tags, "summary": result.summary()}


@dataclass
class SweepRow:
    """One grid cell's outcome: its coordinates plus the run's summary."""

    tags: Dict[str, Any]
    summary: Dict[str, Any]
    result: Optional[Any] = None
    """The live SimulationResult — populated only on serial runs that asked
    to keep results (live results cannot cross process boundaries)."""

    @property
    def efficiency(self) -> Optional[float]:
        return self.summary.get("efficiency")

    def report(self, label: str) -> Dict[str, Any]:
        return self.summary["reports"][label]

    def matches(self, **tags: Any) -> bool:
        return all(self.tags.get(key) == value for key, value in tags.items())


@dataclass
class SweepResult:
    """All rows of a sweep, with filtering and JSON/CSV export."""

    rows: List[SweepRow] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __getitem__(self, index):
        return self.rows[index]

    # -- selection ------------------------------------------------------------------

    def filter(self, **tags: Any) -> "SweepResult":
        """The matching rows as a new SweepResult — chainable, like
        :meth:`ResultFrame.filter` (it still iterates/indexes like a list)."""
        return SweepResult(rows=[row for row in self.rows if row.matches(**tags)])

    def mean_efficiency(self, **tags: Any) -> float:
        matching = self.filter(**tags)
        if not matching:
            raise EmptySelectionError(f"no sweep rows match {tags!r}")
        values = [row.efficiency for row in matching if row.efficiency is not None]
        if not values:
            raise EmptySelectionError(
                f"{len(matching)} sweep rows match {tags!r} but none carries an "
                "efficiency metric (the workload has no primary label)"
            )
        return sum(values) / len(values)

    # -- export ---------------------------------------------------------------------

    def to_dict(self) -> List[Dict[str, Any]]:
        # Tag dicts are rebuilt key-sorted so exported artifacts diff cleanly
        # across runs regardless of dimension declaration order.
        return [
            {"tags": dict(sorted(row.tags.items())), "summary": row.summary}
            for row in self.rows
        ]

    def to_json(self, path: Optional[Union[str, Path]] = None) -> str:
        """Serialize every row; written to ``path`` if given."""
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        if path is not None:
            target = Path(path)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text, encoding="utf-8")
        return text

    def to_csv(self, path: Optional[Union[str, Path]] = None) -> str:
        """A flat table: tag columns plus the headline metrics per row.

        Tag columns are emitted in sorted order (not first-seen insertion
        order) so CSV artifacts from the same grid diff cleanly no matter
        how the sweep's dimensions were declared.
        """
        tag_keys = sorted({key for row in self.rows for key in row.tags})
        metric_keys = ["efficiency", "blocks_produced", "simulated_seconds"]
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(tag_keys + metric_keys)
        for row in self.rows:
            record = [row.tags.get(key, "") for key in tag_keys]
            record.append(row.summary.get("efficiency"))
            record.append(row.summary.get("blocks_produced"))
            record.append(row.summary.get("simulated_seconds"))
            writer.writerow(record)
        text = buffer.getvalue()
        if path is not None:
            target = Path(path)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text, encoding="utf-8")
        return text


class Sweep:
    """Expands a parameter grid over a base spec and executes it."""

    def __init__(self, base: SimulationSpec) -> None:
        self.base = base
        self._dimensions: Dict[str, List[Any]] = {}
        self._trials = 1
        self._explicit_jobs: Optional[List[Tuple[SimulationSpec, Dict[str, Any]]]] = None

    # -- construction -----------------------------------------------------------------

    @classmethod
    def from_specs(
        cls,
        jobs: Sequence[Tuple[SimulationSpec, Dict[str, Any]]],
    ) -> "Sweep":
        """A sweep over pre-expanded (spec, tags) jobs — for callers that need
        exact control over every spec (e.g. regenerating the paper's seeds)."""
        if not jobs:
            raise ValueError("a sweep needs at least one job")
        sweep = cls(jobs[0][0])
        sweep._explicit_jobs = [(spec, dict(tags)) for spec, tags in jobs]
        return sweep

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

    @staticmethod
    def _tag_value(name: str, value: Any) -> Any:
        if isinstance(value, Scenario):
            return value.name
        return value

    def jobs(self) -> List[Tuple[SimulationSpec, Dict[str, Any]]]:
        """The fully expanded, deterministically seeded (spec, tags) list."""
        if self._explicit_jobs is not None:
            return [(spec, dict(tags)) for spec, tags in self._explicit_jobs]
        names = list(self._dimensions)
        grids = [self._dimensions[name] for name in names]
        jobs: List[Tuple[SimulationSpec, Dict[str, Any]]] = []
        for combo in itertools.product(*grids) if names else [()]:
            cell_spec = self.base
            tags: Dict[str, Any] = {}
            for name, value in zip(names, combo):
                cell_spec = apply_dimension(cell_spec, name, value)
                tags[name] = self._tag_value(name, value)
            for trial in range(self._trials):
                seed = derive_seed(
                    self.base.seed,
                    cell_spec.scenario.name,
                    cell_spec.workload,
                    tuple(sorted((k, repr(v)) for k, v in tags.items())),
                    trial,
                )
                trial_tags = dict(tags)
                trial_tags["trial"] = trial
                trial_tags["seed"] = seed
                jobs.append((cell_spec.with_seed(seed), trial_tags))
        return jobs

    # -- execution --------------------------------------------------------------------

    def run(
        self,
        workers: int = 1,
        keep_results: bool = False,
        checkpoint: Optional[Union[str, Path]] = None,
    ) -> SweepResult:
        """Execute every job; ``workers > 1`` uses a multiprocessing pool.

        Results are deterministic and identical across worker counts: each
        job's spec fully seeds its run, and rows keep the expansion order.
        ``keep_results`` attaches live SimulationResult objects to the rows
        (serial runs only — live results cannot cross process boundaries).

        ``checkpoint`` names a JSONL file keyed by the job list's content
        digest: every completed row is appended as it finishes, and a re-run
        against the same file executes only the rows the file is missing.
        Serial, parallel, and resumed runs all produce the same rows, so
        their exports are byte-identical.
        """
        jobs = self.jobs()
        if workers > 1 and keep_results:
            raise ValueError("keep_results requires a serial run (workers=1)")
        if checkpoint is not None:
            if keep_results:
                raise ValueError(
                    "keep_results cannot be combined with a checkpoint "
                    "(live results cannot be persisted)"
                )
            return self._run_checkpointed(jobs, workers, checkpoint)
        if workers > 1:
            with _worker_pool(workers) as pool:
                raw_rows = pool.map(_run_job, jobs)
            rows = [SweepRow(tags=raw["tags"], summary=raw["summary"]) for raw in raw_rows]
        elif keep_results:
            # Live results keep their peers (and, transitively, the event
            # loop), so each trial gets a private Simulator.
            from .engine import run_simulation

            rows = []
            for spec, tags in jobs:
                result = run_simulation(spec)
                rows.append(SweepRow(tags=tags, summary=result.summary(), result=result))
        else:
            # Serial runs take the same warm path as a pool worker.
            rows = [
                SweepRow(tags=raw["tags"], summary=raw["summary"])
                for raw in map(_run_job, jobs)
            ]
        return SweepResult(rows=rows)

    def _run_checkpointed(
        self,
        jobs: List[Tuple[SimulationSpec, Dict[str, Any]]],
        workers: int,
        checkpoint: Union[str, Path],
    ) -> SweepResult:
        """Run only the rows the checkpoint file is missing, recording each
        completion incrementally (``imap`` streams parallel rows back in
        order, so an interrupted pool loses only in-flight cells)."""
        store = SweepCheckpoint.load(checkpoint, sweep_digest(jobs), len(jobs))
        store.begin()
        pending = [(index, jobs[index]) for index in store.missing()]
        if pending and workers > 1:
            with _worker_pool(workers) as pool:
                for (index, (_spec, tags)), raw in zip(
                    pending, pool.imap(_run_job, [job for _index, job in pending])
                ):
                    store.record(index, raw["tags"], raw["summary"])
        elif pending:
            for index, (spec, tags) in pending:
                raw = _run_job((spec, tags))
                store.record(index, raw["tags"], raw["summary"])
        rows = []
        for index in range(len(jobs)):
            payload = store.row(index)
            rows.append(SweepRow(tags=payload["tags"], summary=payload["summary"]))
        return SweepResult(rows=rows)
