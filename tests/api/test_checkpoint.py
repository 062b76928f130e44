"""Sweep checkpoints under hostile bytes: torn tails, flipped bytes, non-UTF-8.

A checkpoint is written one row line at a time, and every row carries a
``check``, so damage stays on the line it hits.  These tests pin that a
damaged file either loads exactly the rows its intact lines hold or raises
:class:`CheckpointMismatchError` (a damaged header) — and never anything
else.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.checkpoint import CheckpointMismatchError, SweepCheckpoint, record_check

DIGEST = "ab" * 32
TOTAL = 5
ROWS = {
    index: {
        "tags": {"scenario": "semantic_mining", "trial": index, "seed": 1000 + index},
        "summary": {"efficiency": index / 4, "reports": {"buy": {"submitted": 8}}},
    }
    for index in (0, 2, 1, 3)  # completion order; index 4 never finished
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("checkpoint")


@pytest.fixture(scope="module")
def original(workdir) -> bytes:
    """A valid checkpoint's bytes, written through the real API."""
    path = workdir / "original.jsonl"
    store = SweepCheckpoint(path, DIGEST, TOTAL)
    store.begin()
    for index, row in ROWS.items():
        store.record(index, row["tags"], row["summary"])
    return path.read_bytes()


def load(path, data: bytes):
    path.write_bytes(data)
    return SweepCheckpoint.load(path, DIGEST, TOTAL).completed


def line_spans(data: bytes):
    """``(start, end, index)`` per line, ``end`` past its newline; ``index``
    is the row index the intact line holds (``None`` for the header)."""
    spans, start = [], 0
    for line in data.splitlines(keepends=True):
        record = json.loads(line)
        spans.append((start, start + len(line), record.get("index")))
        start += len(line)
    return spans


class TestDamagedLines:
    def test_a_non_utf8_tail_drops_only_itself(self, workdir, original):
        completed = load(workdir / "tail.jsonl", original + b"\xc3")
        assert completed == ROWS

    def test_a_non_utf8_row_line_drops_only_its_row(self, workdir, original):
        lines = original.splitlines(keepends=True)
        lines[2] = b"\xff\xfe garbage\n"  # the second recorded row (index 2)
        completed = load(workdir / "row.jsonl", b"".join(lines))
        assert completed == {index: ROWS[index] for index in (0, 1, 3)}

    def test_a_non_utf8_header_is_a_mismatch(self, workdir, original):
        with pytest.raises(CheckpointMismatchError, match="not a sweep checkpoint"):
            load(workdir / "header.jsonl", b"\xff" + original)

    def test_a_bool_index_is_no_row_index(self, workdir, original):
        header = original.splitlines(keepends=True)[0]
        row = dict(ROWS[1], index=True)
        row["check"] = record_check(row)
        completed = load(workdir / "bool.jsonl", header + json.dumps(row).encode() + b"\n")
        assert completed == {}

    def test_a_row_that_fails_its_check_is_rerun(self, workdir, original):
        """A flipped digit still parses: the check is what catches it."""
        lines = original.splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"submitted": 8', b'"submitted": 9')
        completed = load(workdir / "altered.jsonl", b"".join(lines))
        assert completed == {index: ROWS[index] for index in (1, 2, 3)}

    def test_a_version_1_checkpoint_is_foreign(self, workdir, original):
        lines = original.splitlines(keepends=True)
        lines[0] = lines[0].replace(b'"version": 2', b'"version": 1')
        with pytest.raises(CheckpointMismatchError, match="format version"):
            load(workdir / "v1.jsonl", b"".join(lines))


class TestHostileFileProperty:
    """Truncate a valid checkpoint at any byte, or flip any byte of it."""

    @settings(max_examples=200, deadline=None)
    @given(cut=st.integers(0, 1 << 16))
    def test_truncation_keeps_exactly_the_complete_rows(self, workdir, original, cut):
        data = original
        cut %= len(data) + 1
        try:
            completed = load(workdir / "cut.jsonl", data[:cut])
        except CheckpointMismatchError:
            assert cut < data.index(b"\n")  # only a torn header is refused
            return
        complete = [
            index
            for start, end, index in line_spans(data)
            if index is not None and end - 1 <= cut  # its newline may be torn off
        ]
        assert completed == {index: ROWS[index] for index in complete}

    @settings(max_examples=300, deadline=None)
    @given(position=st.integers(0, 1 << 16), mask=st.integers(1, 255))
    def test_a_flipped_byte_costs_at_most_the_rows_it_touches(
        self, workdir, original, position, mask
    ):
        data = bytearray(original)
        position %= len(data)
        data[position] ^= mask
        try:
            completed = load(workdir / "flip.jsonl", bytes(data))
        except CheckpointMismatchError:
            return
        spans = line_spans(original)
        hit = {index for start, end, index in spans if start <= position < end}
        # A flipped newline joins the hit line to the next one.
        hit |= {index for start, _end, index in spans if start == position + 1}
        assert all(ROWS.get(index) == row for index, row in completed.items())
        assert set(ROWS) - hit <= set(completed)
