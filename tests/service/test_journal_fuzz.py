"""The request journal under hostile bytes: truncate a valid journal at any
byte, or flip any byte of it, and replay it.

Kept apart from ``test_persist.py``, whose module-wide warnings-as-errors
mark would turn a failing example's report into a pytest internal error.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.service.errors import MethodNotFoundError
from repro.service.persist import RequestJournal
from repro.service.verbs import VERBS


ENTRIES = [
    ("session.create", {"params": {"num_buys": 4}, "accounts": ["alice"]}),
    ("session.advance", {"session": "s-1", "blocks": 2}),
    ("tx.submit", {"session": "s-1", "account": "alice", "to": "0x" + "11" * 20}),
    ("session.close", {"session": "s-1"}),
]


@pytest.fixture(scope="module")
def journal_bytes(tmp_path_factory):
    """A valid journal's bytes, written through the real API."""
    directory = tmp_path_factory.mktemp("journal")
    journal = RequestJournal(directory)
    journal.open()
    for method, params in ENTRIES:
        journal.record(method, params)
    journal.close()
    return journal.path.read_bytes()


def replay(directory, data: bytes):
    """Replay ``data`` as a journal through a dispatcher that records each
    call and refuses unknown methods the way the service does."""
    journal = RequestJournal(directory)
    journal.path.parent.mkdir(parents=True, exist_ok=True)
    journal.path.write_bytes(data)
    calls = []

    def dispatch(method, params):
        if method not in VERBS:
            raise MethodNotFoundError(method)
        calls.append((method, params))

    journal.replay(dispatch)
    return calls, journal


def line_ends(data: bytes):
    """The offset just past each line's newline."""
    ends, end = [], 0
    for line in data.splitlines(keepends=True):
        end += len(line)
        ends.append(end)
    return ends


class TestHostileJournalProperty:
    """Truncate a valid journal at any byte, or flip any byte of it: exactly
    the intact entries replay, in order, and the damage is counted, not
    raised."""

    @settings(max_examples=200, deadline=None)
    @given(cut=st.integers(0, 1 << 16))
    def test_truncation_replays_exactly_the_complete_entries(
        self, tmp_path_factory, journal_bytes, cut
    ):
        cut %= len(journal_bytes) + 1
        calls, journal = replay(tmp_path_factory.getbasetemp() / "cut", journal_bytes[:cut])
        ends = line_ends(journal_bytes)
        # Line 0 is the header; a line whose newline alone is torn off is whole.
        assert calls == ENTRIES[: sum(1 for end in ends[1:] if end - 1 <= cut)]
        whole = {0} | set(ends) | {end - 1 for end in ends}
        assert journal.replay_errors == (0 if cut in whole else 1)

    @settings(max_examples=300, deadline=None)
    @given(position=st.integers(0, 1 << 16), mask=st.integers(1, 255))
    def test_a_flipped_byte_costs_at_most_the_lines_it_touches(
        self, tmp_path_factory, journal_bytes, position, mask
    ):
        data = bytearray(journal_bytes)
        position %= len(data)
        data[position] ^= mask
        calls, journal = replay(tmp_path_factory.getbasetemp() / "flip", bytes(data))
        hit = sum(1 for end in line_ends(journal_bytes) if end <= position)
        # A flipped newline joins the hit line to the next one.
        touched = {hit, hit + 1} if journal_bytes[position] == ord("\n") else {hit}
        assert calls == [entry for line, entry in enumerate(ENTRIES, start=1) if line not in touched]
        assert journal.replay_errors <= 2
