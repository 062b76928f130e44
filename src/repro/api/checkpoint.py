"""Resumable sweep execution: per-row JSONL checkpoints keyed by spec digest.

A sweep's job list is fully deterministic (specs plus tags, in expansion
order), so its SHA-256 digest identifies the grid exactly.  The checkpoint
file records that digest in a header line and then one JSON line per
*completed* row::

    {"kind": "sweep-checkpoint", "digest": "ab12...", "total": 45, "version": 2}
    {"check": "9f3e...", "index": 0, "summary": {...}, "tags": {...}}
    {"check": "04c1...", "index": 3, "summary": {...}, "tags": {...}}

Rows are appended (and flushed) as each cell finishes, so an interrupted run
loses at most the in-flight cells.  On resume, :meth:`SweepCheckpoint.load`
verifies the digest — a checkpoint written for a *different* grid (or a file
that is not a checkpoint at all) raises :class:`CheckpointMismatchError`
rather than silently discarding completed work or overwriting a user's file —
and the runner executes only the missing indices.  Because every cell's spec
fully seeds its run, a resumed sweep's rows are identical to an uninterrupted
run's, and the exported artifacts are byte-identical (the invariant CI
enforces).

Each row carries a ``check`` (:func:`record_check`), so a byte that a
crash or a disk flipped drops its row — which then simply re-runs — instead
of resuming it with an altered value.

Checkpointed rows round-trip through JSON, so live rows are canonicalized
the same way before they enter a checkpointed :class:`SweepResult` — a
fresh-with-checkpoint run and a resumed run produce equal rows, not merely
equal exports.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "CheckpointMismatchError",
    "SweepCheckpoint",
    "read_jsonl",
    "record_check",
    "spec_digest",
    "sweep_digest",
]

_FORMAT_VERSION = 2
"""Version 2 rows carry a ``check``; version 1 files are refused as foreign."""


class CheckpointMismatchError(ValueError):
    """The checkpoint file on disk does not belong to this sweep.

    Raised instead of silently truncating: the file may hold hours of
    completed rows for a *different* grid (changed seed/trials/overrides),
    or not be a checkpoint at all.  Delete the file, point at a new path,
    or restore the original sweep options to resume it."""


def spec_digest(spec: Any) -> str:
    """A short content digest of one spec's :meth:`describe` rendering.

    Keys per-job artefacts (trace files) to the cell that produced them:
    ``describe()`` excludes output paths, so the same simulation gets the
    same digest whether it ran serially, in a worker, or into a different
    trace directory.
    """
    payload = json.dumps(spec.describe(), sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


def sweep_digest(jobs: Sequence[Tuple[Any, Dict[str, Any]]]) -> str:
    """A stable content digest of a fully expanded (spec, tags) job list."""
    digest = hashlib.sha256()
    for spec, tags in jobs:
        payload = {"spec": spec.describe(), "tags": dict(sorted(tags.items()))}
        digest.update(json.dumps(payload, sort_keys=True, default=str).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def read_jsonl(path: Path) -> List[Any]:
    """Every non-blank line of a durable JSONL log, decoded; ``None`` stands
    for a line that is not UTF-8 JSON.  The file is read as bytes and decoded
    line by line, so a torn or flipped byte spoils only the line it sits on."""
    records = []
    for line in path.read_bytes().splitlines():
        if not line.strip():
            continue
        try:
            records.append(json.loads(line.decode("utf-8")))
        except (ValueError, RecursionError):  # UnicodeDecodeError, JSONDecodeError
            records.append(None)
    return records


def record_check(record: Dict[str, Any]) -> str:
    """A short digest of a log record's canonical JSON.  Stored beside the
    record, it catches a line that a flipped byte altered but left parseable
    (a digit inside a value, a row index), so the reader drops the line
    instead of trusting it."""
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode("utf-8")).hexdigest()[:16]


def _canonical(row: Dict[str, Any]) -> Dict[str, Any]:
    """JSON round-trip a row payload so loaded and live rows compare equal."""
    return json.loads(json.dumps(row, sort_keys=True))


class SweepCheckpoint:
    """One sweep's JSONL checkpoint file."""

    def __init__(self, path: Union[str, Path], digest: str, total: int) -> None:
        self.path = Path(path)
        self.digest = digest
        self.total = total
        self.completed: Dict[int, Dict[str, Any]] = {}

    @classmethod
    def load(
        cls, path: Union[str, Path], digest: str, total: int
    ) -> "SweepCheckpoint":
        """Open (or create) the checkpoint for a job list with ``digest``.

        A missing or empty file yields a fresh checkpoint.  An existing file
        must carry this sweep's digest in its header; a foreign digest — or a
        file that is not a checkpoint at all — raises
        :class:`CheckpointMismatchError` instead of silently discarding its
        rows.  A corrupt *row line* only drops that row: every earlier intact
        row is kept, which is exactly the state after an interrupted run.
        """
        checkpoint = cls(path, digest, total)
        target = Path(path)
        if not target.exists():
            return checkpoint
        records = read_jsonl(target)
        if not records:
            return checkpoint
        header = records[0]
        if not isinstance(header, dict) or header.get("kind") != "sweep-checkpoint":
            raise CheckpointMismatchError(
                f"{target} exists but is not a sweep checkpoint; delete it or "
                "choose another path"
            )
        if header.get("digest") != digest or header.get("version") != _FORMAT_VERSION:
            raise CheckpointMismatchError(
                f"{target} belongs to a different sweep (its grid digest or "
                "format version does not match this one's) — its completed "
                "rows would be lost. "
                "Re-run with the options the checkpoint was written with, or "
                "delete the file / choose another path to start fresh."
            )
        for record in records[1:]:
            # A line that does not decode or check is the partially written
            # final line of an interrupted run, or a corrupt one: only its
            # row is lost.
            if not isinstance(record, dict) or record.pop("check", None) != record_check(record):
                continue
            index = record.get("index")
            tags = record.get("tags")
            summary = record.get("summary")
            if (
                type(index) is int  # not a bool: ``true`` is no row index
                and 0 <= index < total
                and isinstance(tags, dict)
                and isinstance(summary, dict)
            ):
                checkpoint.completed[index] = {"tags": tags, "summary": summary}
        return checkpoint

    # -- queries ------------------------------------------------------------------------

    def missing(self) -> List[int]:
        return [index for index in range(self.total) if index not in self.completed]

    def row(self, index: int) -> Optional[Dict[str, Any]]:
        return self.completed.get(index)

    # -- writing ------------------------------------------------------------------------

    def begin(self) -> None:
        """(Re)write the file as header + already-completed rows.

        Called once before execution: it persists the digest header and
        compacts any rows carried over from a previous interrupted run, so
        appends during this run extend a well-formed file.  The rewrite is
        staged through a sibling temp file and ``os.replace``d into place —
        a crash mid-compaction leaves the previous checkpoint intact rather
        than destroying the completed rows it exists to preserve.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        staging = self.path.with_name(self.path.name + ".tmp")
        with staging.open("w", encoding="utf-8") as handle:
            header = {
                "kind": "sweep-checkpoint",
                "digest": self.digest,
                "total": self.total,
                "version": _FORMAT_VERSION,
            }
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for index in sorted(self.completed):
                handle.write(self._row_line(index, self.completed[index]))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(staging, self.path)
        # The rename itself is only durable once the parent directory entry
        # is on disk: without this, a crash right after begin() can leave the
        # old (or no) checkpoint visible even though the data was fsynced.
        try:
            dir_fd = os.open(self.path.parent, os.O_RDONLY)
        except OSError:  # pragma: no cover - directories not openable here
            return
        try:
            os.fsync(dir_fd)
        except OSError:  # pragma: no cover - fsync on dirs unsupported
            pass
        finally:
            os.close(dir_fd)

    def record(self, index: int, tags: Dict[str, Any], summary: Dict[str, Any]) -> Dict[str, Any]:
        """Persist one completed row; returns the canonicalized payload."""
        payload = _canonical({"tags": tags, "summary": summary})
        self.completed[index] = payload
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(self._row_line(index, payload))
            handle.flush()
        return payload

    @staticmethod
    def _row_line(index: int, payload: Dict[str, Any]) -> str:
        record = {"index": index, "tags": payload["tags"], "summary": payload["summary"]}
        record["check"] = record_check(record)
        return json.dumps(record, sort_keys=True) + "\n"
