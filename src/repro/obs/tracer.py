"""The per-trial Tracer: typed events, phase spans, and their exporters.

One :class:`Tracer` records everything one simulation trial observed:

* **typed events** — a closed vocabulary (:data:`EVENT_KINDS`) covering the
  transaction lifecycle (submit → gossip hop → pool admit/replace/evict →
  block include → receipt), the block lifecycle (build/import/reject/orphan/
  range-sync), churn, fault injections, and adversary decisions.  Each event carries the
  simulation clock (deterministic) and a monotonic wall clock (not);
* **phase spans** — lightweight timers around the engine's hot phases
  (:data:`PHASES`): block assembly, import, validation replay, transaction
  application, trie commitment, wire encoding, and metrics folding.

Events and spans share one sequence counter, so the merged, seq-ordered
stream is a total order of everything the trial did — and, wall-time fields
aside, that stream is a pure function of the spec (the property
``tests/obs/test_trace_determinism.py`` locks in).

Exports: :meth:`Tracer.to_jsonl` (one JSON object per line, seq-ordered)
and :meth:`Tracer.to_chrome_trace` (the Chrome trace-event format, openable
in ``chrome://tracing`` or https://ui.perfetto.dev — events on a sim-time
process, phase spans on a wall-time process, since the two clocks do not
share an axis).
"""

from __future__ import annotations

import json
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from .probes import snapshot as _global_snapshot

__all__ = ["EVENT_KINDS", "PHASES", "Tracer"]

EVENT_KINDS = frozenset(
    {
        "tx.submit",
        "tx.include",
        "tx.receipt",
        "gossip.tx",
        "gossip.block",
        "pool.admit",
        "pool.replace",
        "pool.evict",
        "block.build",
        "block.import",
        "block.reject",
        "block.orphan",
        "sync.range",
        "churn",
        "adversary.attack",
        # Fault injection (emitted by repro.faults.FaultInjector).
        "fault.inject",
        "fault.crash",
        "fault.restart",
        # Service-facade request lifecycle (emitted by repro.service.server).
        "rpc.request",
        "rpc.error",
        "session.create",
        "session.close",
        "session.evict",
    }
)
"""The typed event vocabulary.  A closed set: a typo'd kind at a call site
is a bug the first traced test run should catch, not a new silent stream."""

PHASES = (
    "mine",
    "block_import",
    "validate",
    "state_apply",
    "trie_commit",
    "gossip_encode",
    "metrics_fold",
)
"""Every instrumented phase timer, hottest-loop first.  ``validate`` only
fires when the block-apply cache misses (tampered blocks, divergent
lineages); all others occur on every default run."""

_MICROS = 1_000_000  # Chrome trace timestamps are microseconds.


def _jsonable_value(value: Any) -> Any:
    """Render one event-field value JSON-ready (hashes become hex strings)."""
    if isinstance(value, bytes):
        return "0x" + value.hex()
    if isinstance(value, (list, tuple)):
        return [_jsonable_value(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable_value(item) for key, item in value.items()}
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


class Tracer:
    """Structured event + phase recorder for one simulation trial."""

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        max_events: int = 1_000_000,
        keep_latest: bool = False,
    ) -> None:
        """At ``max_events`` events a trial tracer stops recording them, and
        at ``max_events`` phase spans it stops keeping spans (the kept
        prefix stays a pure function of the spec; phase totals still count
        every span); ``keep_latest`` makes the events a ring that drops the
        *oldest* event instead, for a long-lived recorder.  Every event or
        span not kept is counted in ``dropped_events``."""
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._wall_origin = time.perf_counter()
        self._seq = 0
        self.max_events = max_events
        self.dropped_events = 0
        # Events: (seq, kind, sim_time, wall_time, args)
        self._keep_latest = keep_latest
        self._events: Union[List[Tuple[int, str, float, float, Dict[str, Any]]], deque] = (
            deque(maxlen=max_events) if keep_latest else []
        )
        # Spans:  (seq, phase, sim_time, wall_start, wall_duration)
        self._spans: List[Tuple[int, str, float, float, float]] = []
        self._phase_totals: Dict[str, List[float]] = {}  # phase -> [calls, seconds]
        self._probes: Dict[str, Callable[[], Dict[str, Any]]] = {}
        self._final_snapshot: Optional[Dict[str, Dict[str, Any]]] = None

    # -- recording ----------------------------------------------------------------

    def event(self, kind: str, **fields: Any) -> None:
        """Record one typed event at the current sim/wall time.

        Field values are stored as passed and sanitized lazily at export —
        every call site hands in a fresh kwargs dict of (effectively)
        immutable values, so recording stays a tuple append on the hot path.
        """
        if kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown trace event kind {kind!r}; expected one of {sorted(EVENT_KINDS)}"
            )
        if len(self._events) >= self.max_events:
            self.dropped_events += 1
            if not self._keep_latest:
                return
            # a full deque(maxlen) evicts its oldest entry on append
        self._seq += 1
        self._events.append(
            (self._seq, kind, self._clock(), time.perf_counter() - self._wall_origin, fields)
        )

    def phase(self, name: str, wall_start: float) -> None:
        """Close a phase span opened at ``wall_start`` (a ``perf_counter()``).

        Call sites sample ``time.perf_counter()`` themselves before the
        phase body (only when a tracer is active) and hand it in here after,
        so the untraced path never touches the clock.
        """
        end = time.perf_counter()
        if len(self._spans) < self.max_events:
            self._seq += 1
            self._spans.append(
                (self._seq, name, self._clock(), wall_start - self._wall_origin, end - wall_start)
            )
        else:
            self.dropped_events += 1
        total = self._phase_totals.get(name)
        if total is None:
            self._phase_totals[name] = [1, end - wall_start]
        else:
            total[0] += 1
            total[1] += end - wall_start

    # -- probes -------------------------------------------------------------------

    def register_probe(self, name: str, probe: Callable[[], Dict[str, Any]]) -> None:
        """Attach a per-trial probe (e.g. this run's network counters)."""
        self._probes[name] = probe

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Every probe's current reading: process-global probes from the
        registry plus this trial's own, merged under sorted names."""
        readings = dict(_global_snapshot())
        for name in sorted(self._probes):
            readings[name] = _jsonable_value(self._probes[name]())
        return {name: readings[name] for name in sorted(readings)}

    def finalize(self) -> None:
        """Freeze the probe snapshot (called by the engine as the trial ends,
        before a later run moves the process-wide counters)."""
        self._final_snapshot = self.snapshot()

    # -- digests ------------------------------------------------------------------

    def event_counts(self) -> Dict[str, int]:
        """Deterministic per-kind event counts, sorted by kind."""
        counts: Dict[str, int] = {}
        for _seq, kind, _sim, _wall, _args in self._events:
            counts[kind] = counts.get(kind, 0) + 1
        return {kind: counts[kind] for kind in sorted(counts)}

    def phase_totals(self) -> Dict[str, Dict[str, float]]:
        """Aggregated ``{phase: {calls, wall_seconds}}``, sorted by phase."""
        return {
            name: {"calls": self._phase_totals[name][0], "wall_seconds": self._phase_totals[name][1]}
            for name in sorted(self._phase_totals)
        }

    def summary(self) -> Dict[str, Any]:
        """The JSON-ready digest ``SimulationResult.summary()`` embeds under
        its (emit-only-when-enabled) ``observability`` key."""
        return {
            "events": len(self._events),
            "dropped_events": self.dropped_events,
            "event_counts": self.event_counts(),
            "phases": self.phase_totals(),
            "probes": self._final_snapshot if self._final_snapshot is not None else self.snapshot(),
        }

    # -- exports ------------------------------------------------------------------

    def records(self) -> List[Dict[str, Any]]:
        """The merged event + span stream, seq-ordered, as plain dicts."""
        rows: List[Dict[str, Any]] = []
        for seq, kind, sim_time, wall_time, args in self._events:
            rows.append(
                {
                    "seq": seq,
                    "kind": kind,
                    "sim_time": round(sim_time, 9),
                    "wall_time": wall_time,
                    "args": {key: _jsonable_value(value) for key, value in args.items()},
                }
            )
        for seq, name, sim_time, wall_start, wall_duration in self._spans:
            rows.append(
                {
                    "seq": seq,
                    "kind": "phase",
                    "phase": name,
                    "sim_time": round(sim_time, 9),
                    "wall_start": wall_start,
                    "wall_duration": wall_duration,
                }
            )
        rows.sort(key=lambda row: row["seq"])
        return rows

    def to_jsonl(self) -> str:
        """One JSON object per line; strip the ``wall_*`` keys to get the
        deterministic event sequence the determinism tests compare."""
        return "".join(
            json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"
            for row in self.records()
        )

    def to_chrome_trace(self) -> Dict[str, Any]:
        """The run as Chrome trace-event JSON (``chrome://tracing``/Perfetto).

        Two trace "processes" because the run has two clocks: pid 1 plots
        the typed events on the *simulation* clock (one thread per actor),
        pid 2 plots the phase spans on the *wall* clock.
        """
        trace_events: List[Dict[str, Any]] = [
            {"ph": "M", "pid": 1, "tid": 0, "name": "process_name", "args": {"name": "sim-time events"}},
            {"ph": "M", "pid": 2, "tid": 0, "name": "process_name", "args": {"name": "wall-time phases"}},
            {"ph": "M", "pid": 2, "tid": 1, "name": "thread_name", "args": {"name": "phases"}},
        ]
        actor_tids: Dict[str, int] = {}
        for seq, kind, sim_time, _wall_time, args in self._events:
            actor = str(args.get("peer") or args.get("to") or args.get("adversary") or "sim")
            tid = actor_tids.get(actor)
            if tid is None:
                tid = actor_tids[actor] = len(actor_tids) + 1
                trace_events.append(
                    {"ph": "M", "pid": 1, "tid": tid, "name": "thread_name", "args": {"name": actor}}
                )
            trace_events.append(
                {
                    "ph": "i",
                    "ts": sim_time * _MICROS,
                    "pid": 1,
                    "tid": tid,
                    "name": kind,
                    "cat": kind.split(".", 1)[0],
                    "s": "t",
                    "args": dict(
                        {key: _jsonable_value(value) for key, value in args.items()},
                        seq=seq,
                    ),
                }
            )
        for seq, name, sim_time, wall_start, wall_duration in self._spans:
            trace_events.append(
                {
                    "ph": "X",
                    "ts": wall_start * _MICROS,
                    "dur": wall_duration * _MICROS,
                    "pid": 2,
                    "tid": 1,
                    "name": name,
                    "cat": "phase",
                    "args": {"seq": seq, "sim_time": sim_time},
                }
            )
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def write(self, directory: Union[str, Path], stem: str) -> Dict[str, Path]:
        """Write ``<stem>.jsonl`` and ``<stem>.trace.json`` under ``directory``."""
        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        jsonl_path = target / f"{stem}.jsonl"
        chrome_path = target / f"{stem}.trace.json"
        jsonl_path.write_text(self.to_jsonl(), encoding="utf-8")
        chrome_path.write_text(
            json.dumps(self.to_chrome_trace(), sort_keys=True) + "\n", encoding="utf-8"
        )
        return {"jsonl": jsonl_path, "chrome": chrome_path}
