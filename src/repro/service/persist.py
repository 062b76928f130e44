"""Request-log persistence: the ``--persist``/``--resume`` durability story.

The journal is deliberately *not* a state snapshot.  Sessions are pure
functions of their request history (specs carry content-derived seeds,
session ids are ``<digest>-<ordinal>``, and every engine is deterministic),
so the cheapest durable representation of a server's state is the ordered
log of the state-changing requests it accepted.  :class:`RequestJournal`
appends one JSON line per successful mutating request (fsynced, so a killed
process loses at most the request whose response never went out), and
``--resume`` replays the log through the ordinary dispatcher before the
HTTP listener opens — rebuilding byte-identical sessions: same specs, same
seeds, same ids, same summaries.

Only the verbs :mod:`~repro.service.verbs` declares ``journaled`` are
recorded.  Read-only methods (status, summaries, balances, view calls) do
not change what a replay must rebuild, and keeping them out bounds the log
by the write traffic, not the read traffic.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from ..api.checkpoint import read_jsonl, record_check
from .errors import ServiceError
from .verbs import VERBS

__all__ = ["RequestJournal"]

_HEADER = {"journal": "repro-service-requests", "version": 2}
"""Version 2 entries carry a ``check`` (:func:`~repro.api.checkpoint.record_check`);
a version 1 journal, written before entries had one, replays unchecked."""


class RequestJournal:
    """An append-only JSONL log of successful state-changing requests.

    Concurrency: the engine turn's holder appends, in execution order, and
    teardown may close from another thread, so both take a lock; each append
    is fsynced before the caller's response can be written — the log never
    claims less than what clients were told succeeded.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.path = self.directory / "requests.jsonl"
        self._lock = threading.Lock()
        self._file: Optional[Any] = None
        self.recorded = 0
        self.replayed = 0
        self.replay_errors = 0

    # -- replay (before serving) ---------------------------------------------------

    def entries(self) -> List[Dict[str, Any]]:
        """The recorded requests, in arrival order (header line skipped).

        A line that is not an intact request — a partially written tail
        after a kill, or hand-mangled or flipped bytes, UTF-8 or not — drops
        only itself (counted as a replay error): every intact request before
        and after it still replays.
        """
        if not self.path.exists():
            return []
        records = read_jsonl(self.path)
        header = records[0] if records else None
        checked = header == _HEADER
        if isinstance(header, dict) and header.get("journal") == _HEADER["journal"]:
            records = records[1:]  # this version's header, or an older one's
        rows: List[Dict[str, Any]] = []
        for row in records:
            if (
                isinstance(row, dict)
                and (not checked or row.pop("check", None) == record_check(row))
                and isinstance(row.get("method"), str)
            ):
                rows.append(row)
            else:
                self.replay_errors += 1
        return rows

    def replay(self, dispatch: Callable[[str, Any], Dict[str, Any]]) -> int:
        """Re-dispatch every recorded request through ``dispatch``.

        Typed service errors are counted, not fatal: a log may legitimately
        end with requests the old process rejected too (e.g. a submit against
        a session whose close was also recorded earlier in the log), and
        ``dispatch`` refuses a hand-mangled line's non-object ``params``.
        """
        for entry in self.entries():
            self.replayed += 1
            try:
                dispatch(entry["method"], entry.get("params"))
            except ServiceError:
                self.replay_errors += 1
        return self.replayed

    # -- recording (while serving) ---------------------------------------------------

    def open(self) -> None:
        """Open for appending (creating the directory and header if new)."""
        with self._lock:
            if self._file is not None:
                return
            self.directory.mkdir(parents=True, exist_ok=True)
            fresh = not self.path.exists() or self.path.stat().st_size == 0
            self._file = self.path.open("a", encoding="utf-8")
            if fresh:
                self._file.write(json.dumps(_HEADER, sort_keys=True) + "\n")
                self._file.flush()
                os.fsync(self._file.fileno())

    def record(self, method: str, params: Optional[Dict[str, Any]]) -> None:
        """Durably append one successful request (no-op unless journaled)."""
        if not VERBS[method].journaled:
            return
        entry = {"method": method, "params": dict(params or {})}
        entry["check"] = record_check(entry)
        line = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        with self._lock:
            if self._file is None:
                return
            self._file.write(line + "\n")
            self._file.flush()
            os.fsync(self._file.fileno())
            self.recorded += 1

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def counters(self) -> Dict[str, int]:
        """The journal's contribution to ``service.status``."""
        return {
            "recorded": self.recorded,
            "replayed": self.replayed,
            "replay_errors": self.replay_errors,
        }
