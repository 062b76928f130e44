"""Horizon: bounded-memory long runs — peak RSS versus the retention window.

The paper's claims are about *steady-state* behaviour of an HMS-enabled
chain, so the reproduction must be able to run long horizons without memory
growing with history.  This experiment drives the ``steady_state`` workload
for tens of thousands of blocks at several ``retention`` settings — plus one
unretained leg as the control — and measures each leg's **peak RSS** with
``resource.getrusage``.

Measurement protocol: ``ru_maxrss`` is a process-lifetime high-water mark,
so legs cannot share a process (the first leg's peak would mask every later
leg).  :meth:`HorizonExperiment.execute` therefore overrides the generic
sweep engine and runs every leg in a **fresh spawned child process**, each
reporting its own summary, peak RSS, and wall time over a pipe.  The rows
then flow through the ordinary analyze/claims/export lifecycle.

The claim gates encode the memory model's contract:

* every retained leg holds peak RSS under the committed ceiling
  (:data:`RSS_CEILING_MB`);
* the unretained control measurably exceeds the retained footprint
  (history growth is real, not noise);
* pruning changes no outcome — every leg commits every transaction.

``repro run horizon --smoke`` runs two 50k-block legs in well under 30
seconds; the full grid adds a deeper window at a 100k-block horizon.  CI
runs the smoke grid on every push, so a breached ceiling fails the build.
"""

from __future__ import annotations

import multiprocessing
import sys
import time
from dataclasses import replace
from typing import Any, Dict, List, Tuple

from ..api.experiment import (
    Claim,
    ExperimentOptions,
    GridExperiment,
    register_experiment,
)
from ..api.frame import ResultFrame
from ..api.sweep import Sweep, SweepResult, SweepRow

__all__ = [
    "HorizonExperiment",
    "RSS_CEILING_MB",
    "UNRETAINED_EXCESS_FACTOR",
    "horizon_claims",
]

RSS_CEILING_MB = 128.0
"""The committed peak-RSS ceiling for every retained leg (50k–100k blocks).

Calibrated headroom: a retained 50k-block leg peaks around 80 MB (interpreter
+ bounded caches at their plateau), while the unretained control exceeds
180 MB and keeps growing with the horizon.  The ceiling sits between the two
with ~50% margin each way so runner-to-runner variance cannot flip the gate.
"""

UNRETAINED_EXCESS_FACTOR = 1.15
"""How much larger the unretained control's peak must be than the *largest*
retained peak for history growth to count as measured rather than noise."""

_LEG_TIMEOUT_SECONDS = 1800.0
"""Hard cap on one child leg; generous — the 100k-block leg takes ~20s."""


def _run_leg(spec, connection) -> None:
    """Child-process entry point: run one leg, report over ``connection``.

    Runs in a freshly *spawned* interpreter so ``ru_maxrss`` reflects this
    leg alone (the high-water mark of a forked child starts at the parent's,
    which would make every retained leg inherit the planner's footprint).
    """
    try:
        import resource

        # run_simulation is imported through the facade so workload
        # registration has happened in this fresh interpreter.
        from ..api import run_simulation

        started = time.perf_counter()
        result = run_simulation(spec)
        wall = time.perf_counter() - started
        summary = result.summary()
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is kilobytes on Linux, bytes on macOS.
        peak_mb = peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0
        summary["horizon"] = {
            "peak_rss_mb": round(peak_mb, 1),
            "wall_seconds": round(wall, 3),
            "blocks_per_second": round(summary["blocks_produced"] / max(wall, 1e-9), 1),
        }
        connection.send({"summary": summary})
    except BaseException as error:  # noqa: BLE001 - must cross the pipe
        connection.send({"error": f"{type(error).__name__}: {error}"})
    finally:
        connection.close()


def _column(frame: ResultFrame, retained: bool) -> List[Dict[str, Any]]:
    """The frame's rows split by whether their leg ran with retention."""
    return [
        row
        for row in frame.rows()
        if (row["retention"] is not None) == retained
    ]


def horizon_claims() -> Tuple[Claim, ...]:
    """The memory-model contract as claim gates (see the module docstring)."""

    def bounded(frame: ResultFrame):
        peaks = [row["peak_rss_mb"] for row in _column(frame, retained=True)]
        worst = max(peaks)
        return (
            worst <= RSS_CEILING_MB,
            f"max retained peak {worst:.1f} MB",
            f"ceiling {RSS_CEILING_MB:.0f} MB over {len(peaks)} retained leg(s)",
        )

    def unretained_exceeds(frame: ResultFrame):
        retained = max(row["peak_rss_mb"] for row in _column(frame, retained=True))
        control = min(row["peak_rss_mb"] for row in _column(frame, retained=False))
        return (
            control >= UNRETAINED_EXCESS_FACTOR * retained,
            f"unretained {control:.1f} MB vs retained {retained:.1f} MB "
            f"({control / retained:.2f}x)",
            f"required factor {UNRETAINED_EXCESS_FACTOR}",
        )

    def outcomes_unchanged(frame: ResultFrame):
        shortfalls = []
        for row in frame.rows():
            target = row["summary"]["extras"]["num_blocks"]
            if row["blocks_produced"] < target or row["efficiency"] != 1.0:
                shortfalls.append(
                    f"retention={row['retention']}: {row['blocks_produced']} blocks, "
                    f"eta={row['efficiency']}"
                )
        detail = "pruned and unpruned legs commit every transaction"
        if shortfalls:
            return (False, "; ".join(shortfalls), detail)
        fewest = min(row["blocks_produced"] for row in frame.rows())
        return (True, f"every leg produced >= {fewest} blocks at eta=1.0", detail)

    return (
        Claim(
            name="retention holds the RSS ceiling",
            paper_value=f"steady-state memory is a budget (<= {RSS_CEILING_MB:.0f} MB)",
            check=bounded,
        ),
        Claim(
            name="unretained history measurably exceeds it",
            paper_value="unbounded history grows with the horizon",
            check=unretained_exceeds,
        ),
        Claim(
            name="pruning changes no outcome",
            paper_value="retention is an observer knob, not a consensus change",
            check=outcomes_unchanged,
        ),
    )


@register_experiment
class HorizonExperiment(GridExperiment):
    """Long-horizon memory profile: peak RSS across retention settings.

    A grid over ``retention`` (``None`` = the unbounded control) on the
    ``steady_state`` workload, with execution overridden to one fresh child
    process per leg (see :func:`_run_leg` for why).  Legs that retain also
    turn on streaming metrics — the two halves of the bounded-memory story
    are exercised together, the way a real long run would configure them.
    """

    name = "horizon"
    description = (
        "Bounded-memory long horizons: peak RSS vs the retention window "
        "over a 50k+-block steady-state run"
    )
    workload = "steady_state"
    base_params = {"num_blocks": 100_000, "blocks_per_set": 8}
    smoke_params = {"num_blocks": 50_000}
    spec_fields = {
        "num_miners": 1,
        "num_client_peers": 1,
        "block_interval": 2.0,
        "fixed_block_interval": True,
    }
    dimensions = {"retention": [64, 512, None]}
    smoke_dimensions = {"retention": [64, None]}
    default_trials = 1
    smoke_trials = 1
    default_seed = 11
    claims = horizon_claims()
    export_columns = (
        "retention",
        "trial",
        "seed",
        "blocks_produced",
        "peak_rss_mb",
        "blocks_per_second",
        "wall_seconds",
        "efficiency",
    )

    def plan(self, options: ExperimentOptions) -> Sweep:
        sweep = super().plan(options)
        jobs = []
        for spec, tags in sweep.jobs():
            if spec.retention is not None:
                # Retained legs stream their metrics too: a window of
                # ~256 blocks of simulated time folds whole-run row lists
                # into a few hundred bounded aggregates.
                spec = replace(spec, metrics_window=256.0 * spec.block_interval)
            jobs.append((spec, tags))
        return Sweep.from_specs(jobs)

    def execute(self, options: ExperimentOptions, sweep: Sweep) -> SweepResult:
        if options.checkpoint is not None:
            raise ValueError(
                "the horizon experiment measures per-leg peak RSS in fresh "
                "child processes and does not support checkpoints"
            )
        context = multiprocessing.get_context("spawn")
        rows: List[SweepRow] = []
        for spec, tags in sweep.jobs():
            receiver, sender = context.Pipe(duplex=False)
            process = context.Process(target=_run_leg, args=(spec, sender))
            process.start()
            sender.close()
            try:
                if not receiver.poll(_LEG_TIMEOUT_SECONDS):
                    process.terminate()
                    raise RuntimeError(
                        f"horizon leg {tags} reported nothing within "
                        f"{_LEG_TIMEOUT_SECONDS:.0f}s"
                    )
                payload = receiver.recv()
            except EOFError:
                raise RuntimeError(
                    f"horizon leg {tags} died without reporting "
                    f"(exit code {process.exitcode})"
                ) from None
            finally:
                process.join()
                receiver.close()
            if "error" in payload:
                raise RuntimeError(f"horizon leg {tags} failed: {payload['error']}")
            rows.append(SweepRow(tags=tags, summary=payload["summary"]))
        return SweepResult(rows=rows)

    def analyze(self, frame: ResultFrame, options: ExperimentOptions) -> ResultFrame:
        return frame.derive(
            peak_rss_mb=lambda row: row["summary"]["horizon"]["peak_rss_mb"],
            blocks_per_second=lambda row: row["summary"]["horizon"]["blocks_per_second"],
            wall_seconds=lambda row: row["summary"]["horizon"]["wall_seconds"],
        )
