"""Span recording from outside the program, for the traced pass only.

``install()`` swaps class-level timing wrappers around the calls into each
layer (the table below); ``uninstall()`` puts the originals back.  Nothing
under ``src/`` is edited and nothing is installed while end-to-end numbers
are taken.

Each span is ``(name, start, end, parent)`` on a per-thread list, ``parent``
being the index of the enclosing span on that thread.  Spans stay in memory
and are written once, by :meth:`SpanRecorder.dump`.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import stats

# (module, class, method) -> layer.  The span name is "Class.method".
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.api.engine", "SimulationHandle", "__init__", "api"),
    ("repro.api.engine", "SimulationHandle", "run", "api"),
    ("repro.net.sim", "Simulator", "run_until", "net"),
    ("repro.net.sim", "Simulator", "step", "net"),
    ("repro.net.sim", "Simulator", "schedule_at", "net"),
    ("repro.net.network", "Network", "broadcast_transaction", "net"),
    ("repro.net.network", "Network", "broadcast_block", "net"),
    ("repro.net.network", "Network", "install_topology", "net"),
    ("repro.net.network", "Network", "heal_partitions", "net"),
    ("repro.net.peer", "Peer", "receive_transaction", "net"),
    ("repro.net.peer", "Peer", "receive_block", "net"),
    ("repro.net.peer", "Peer", "import_block", "net"),
    ("repro.net.peer", "Peer", "submit_transaction", "net"),
    ("repro.net.peer", "Peer", "call_contract", "net"),
    ("repro.consensus.miner", "Miner", "produce_block", "consensus"),
    ("repro.chain.chain", "Blockchain", "build_block", "chain"),
    ("repro.chain.chain", "Blockchain", "add_block", "chain"),
    ("repro.evm.engine", "ExecutionEngine", "execute", "evm"),
    ("repro.evm.engine", "ExecutionEngine", "call", "evm"),
    ("repro.core.hms.hash_mark_set", "HashMarkSet", "read_uncommitted", "core"),
    ("repro.core.raa.provider", "HMSRAAProvider", "provide", "core"),
    ("repro.core.metrics", "MetricsCollector", "resolve_from_chain", "core"),
    ("repro.txpool.pool", "TxPool", "add", "txpool"),
    ("repro.txpool.pool", "TxPool", "remove_committed", "txpool"),
    ("repro.service.client", "ServiceClient", "request", "service.client"),
    ("repro.service.server", "ServiceServer", "execute", "service.server"),
    ("repro.service.server", "SimulatorService", "dispatch", "service.server"),
    ("repro.service.session", "ServiceSession", "advance", "service.session"),
    ("repro.service.session", "ServiceSession", "submit", "service.session"),
    ("repro.service.session", "ServiceSession", "call", "service.session"),
    ("repro.service.session", "ServiceSession", "receipt", "service.session"),
    ("repro.service.session", "ServiceSession", "status", "service.session"),
    ("repro.service.session", "ServiceSession", "hms_status", "service.session"),
)

LAYER_OF: Dict[str, str] = {f"{cls}.{method}": layer for _mod, cls, method, layer in TARGETS}


class SpanRecorder:
    """Per-thread span lists plus the wrappers that fill them."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: List[List[Optional[stats.Span]]] = []
        self._lock = threading.Lock()
        self._installed: List[Tuple[type, str, Callable[..., Any]]] = []

    def _thread_state(self) -> Tuple[List[Optional[stats.Span]], List[int]]:
        local = self._local
        try:
            return local.spans, local.stack
        except AttributeError:
            local.spans, local.stack = [], []
            with self._lock:
                self._threads.append(local.spans)
            return local.spans, local.stack

    def _wrap(self, function: Callable[..., Any], name: str) -> Callable[..., Any]:
        clock = time.perf_counter
        thread_state = self._thread_state

        def traced(*args: Any, **kwargs: Any) -> Any:
            spans, stack = thread_state()
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    def install(self) -> None:
        for module_name, class_name, method, _layer in TARGETS:
            owner = getattr(importlib.import_module(module_name), class_name)
            original = owner.__dict__[method]
            setattr(owner, method, self._wrap(original, f"{class_name}.{method}"))
            self._installed.append((owner, method, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, method, original = self._installed.pop()
            setattr(owner, method, original)

    # -- reading ---------------------------------------------------------------------

    def table(self, window: Optional[Tuple[float, float]] = None) -> Dict[str, Dict[str, float]]:
        """``{span name: {calls, total_s, self_s}}`` over every thread."""
        return stats.merge_self_times([stats.self_times(spans, window) for spans in self._threads])

    def totals_under(self, root_name: str, name: str) -> List[float]:
        """Total ``name`` seconds beneath each ``root_name`` root span, one
        entry per root in start order — how a sweep's spans are split back
        into its trials."""
        totals: List[float] = []
        for spans in self._threads:
            slot_of_root: Dict[int, int] = {}
            root_of: List[int] = []
            for index, span in enumerate(spans):
                parent = span[3] if span is not None else -1
                root = root_of[parent] if parent >= 0 else index
                root_of.append(root)
                if span is None:
                    continue
                if parent < 0 and span[0] == root_name:
                    slot_of_root[index] = len(totals)
                    totals.append(0.0)
                elif span[0] == name and root in slot_of_root:
                    totals[slot_of_root[root]] += span[2] - span[1]
        return totals

    def dump(self, path: Path) -> None:
        """Write every span once: a name table plus ``[name, start, end,
        parent]`` rows per thread (``null`` for a span still open)."""
        names: Dict[str, int] = {}
        threads = []
        for spans in self._threads:
            rows = []
            for span in spans:
                if span is None:  # still open: keep the slot, parents index by position
                    rows.append(None)
                    continue
                name, start, end, parent = span
                rows.append([names.setdefault(name, len(names)), start, end, parent])
            threads.append(rows)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            json.dump({"names": list(names), "threads": threads}, handle, separators=(",", ":"))


def load_table(
    path: Path, window: Optional[Tuple[float, float]] = None
) -> Dict[str, Dict[str, float]]:
    """Read a :meth:`SpanRecorder.dump` file back into the self-time table
    (the traced server hands its spans over as a file)."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    names = payload["names"]
    return stats.merge_self_times(
        [
            stats.self_times(
                [None if row is None else (names[row[0]], row[1], row[2], row[3]) for row in rows], window
            )
            for rows in payload["threads"]
        ]
    )


def budget_rows(
    table: Dict[str, Dict[str, float]], traced_wall_s: float
) -> List[Tuple[str, int, float, float]]:
    """``(layer, calls, self_s, share)`` per layer, biggest first, closed by
    an ``unattributed`` row holding what no span's self time covers."""
    by_layer: Dict[str, List[float]] = {}
    for name, entry in table.items():
        layer = by_layer.setdefault(LAYER_OF.get(name, "other"), [0, 0.0])
        layer[0] += entry["calls"]
        layer[1] += entry["self_s"]
    rows = [
        (layer, int(calls), self_s, self_s / traced_wall_s if traced_wall_s else 0.0)
        for layer, (calls, self_s) in sorted(by_layer.items(), key=lambda item: -item[1][1])
    ]
    attributed = sum(row[2] for row in rows)
    rest = max(traced_wall_s - attributed, 0.0)
    rows.append(("unattributed", 0, rest, rest / traced_wall_s if traced_wall_s else 0.0))
    return rows


def format_budget(workload: str, rows: List[Tuple[str, int, float, float]], wall_s: float) -> str:
    lines = [
        f"budget: {workload} (traced wall {wall_s:.3f} s)",
        f"  {'layer':<16}{'calls':>10}{'self s':>10}{'share':>8}",
    ]
    for layer, calls, self_s, share in rows:
        lines.append(f"  {layer:<16}{calls:>10}{self_s:>10.3f}{share:>8.1%}")
    return "\n".join(lines)
