"""Request-journal persistence: record, replay, and byte-identical resume.

These tests run at the :class:`SimulatorService` dispatch level — the
journal's contract is defined there (state-changing methods recorded after
success, replay through the ordinary dispatcher with journaling suppressed),
and killing a *process* is the e2e suite's job
(``tests/e2e/test_kill_resume.py``).
"""

from __future__ import annotations

import json

import pytest

import repro.contracts  # noqa: F401  (registers the shipped contracts)
from repro.service.errors import SessionNotFoundError
from repro.service.persist import RequestJournal
from repro.service.server import ServiceConfig, SimulatorService
from repro.service.verbs import VERBS

pytestmark = pytest.mark.filterwarnings("error")

SMALL_SPEC = {"params": {"num_buys": 4}, "accounts": ["alice"]}


def persistent_service(tmp_path, resume=False):
    return SimulatorService(
        ServiceConfig(
            idle_timeout=None,
            retention_default=None,
            persist_dir=str(tmp_path / "journal"),
            resume=resume,
        )
    )


def journal_lines(tmp_path):
    path = tmp_path / "journal" / "requests.jsonl"
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


class TestRecording:
    def test_journal_file_starts_with_header(self, tmp_path):
        service = persistent_service(tmp_path)
        try:
            service.dispatch("service.ping", {})
        finally:
            service.close()
        header = journal_lines(tmp_path)[0]
        assert header["journal"] == "repro-service-requests"
        assert header["version"] == 2

    def test_only_state_changing_methods_recorded(self, tmp_path):
        service = persistent_service(tmp_path)
        try:
            service.dispatch("service.ping", {})
            service.dispatch("registry.list", {})
            created = service.dispatch("session.create", dict(SMALL_SPEC))
            service.dispatch("session.status", {"session": created["session"]})
        finally:
            service.close()
        methods = [line["method"] for line in journal_lines(tmp_path)[1:]]
        assert methods == ["session.create"]

    def test_failed_requests_not_recorded(self, tmp_path):
        service = persistent_service(tmp_path)
        try:
            with pytest.raises(SessionNotFoundError):
                service.dispatch("session.close", {"session": "nope"})
        finally:
            service.close()
        assert len(journal_lines(tmp_path)) == 1  # header only

    def test_journaled_set_covers_state_changers(self):
        assert VERBS["session.create"].journaled
        assert VERBS["tx.submit"].journaled
        assert not VERBS["session.summary"].journaled


class TestResume:
    def test_resume_rebuilds_byte_identical_sessions(self, tmp_path):
        first = persistent_service(tmp_path)
        try:
            session = first.dispatch("session.create", dict(SMALL_SPEC))["session"]
            first.dispatch("session.run", {"session": session})
            summary = first.dispatch("session.summary", {"session": session})
        finally:
            first.close()

        second = persistent_service(tmp_path, resume=True)
        try:
            listed = second.dispatch("session.list", {})
            assert [row["session"] for row in listed["sessions"]] == [session]
            resumed = second.dispatch("session.summary", {"session": session})
        finally:
            second.close()
        assert json.dumps(resumed, sort_keys=True) == json.dumps(
            summary, sort_keys=True
        )

    def test_resumed_server_appends_to_the_same_journal(self, tmp_path):
        first = persistent_service(tmp_path)
        try:
            first.dispatch("session.create", dict(SMALL_SPEC))
        finally:
            first.close()
        second = persistent_service(tmp_path, resume=True)
        try:
            second.dispatch(
                "session.create", {"params": {"num_buys": 5}, "accounts": ["bob"]}
            )
        finally:
            second.close()

        third = persistent_service(tmp_path, resume=True)
        try:
            listed = third.dispatch("session.list", {})
            assert len(listed["sessions"]) == 2
        finally:
            third.close()

    def test_replay_tolerates_corrupt_rows(self, tmp_path):
        first = persistent_service(tmp_path)
        try:
            session = first.dispatch("session.create", dict(SMALL_SPEC))["session"]
        finally:
            first.close()
        path = tmp_path / "journal" / "requests.jsonl"
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"method": "session.close", "params": {"session": "ghost"}}\n')
            handle.write("not json at all\n")

        second = persistent_service(tmp_path, resume=True)
        try:
            status = second.dispatch("service.status", {})
            assert status["journal"]["replayed"] >= 1
            # One undecodable line plus one replayed-but-rejected request.
            assert status["journal"]["replay_errors"] == 2
            listed = second.dispatch("session.list", {})
            assert [row["session"] for row in listed["sessions"]] == [session]
        finally:
            second.close()

    def test_non_object_params_line_is_one_replay_error(self, tmp_path):
        path = tmp_path / "journal" / "requests.jsonl"
        path.parent.mkdir()
        rows = [
            {"method": "session.create", "params": [1]},
            {"method": "session.create", "params": SMALL_SPEC},
        ]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")

        service = persistent_service(tmp_path, resume=True)
        try:
            journal = service.dispatch("service.status", {})["journal"]
            assert (journal["replayed"], journal["replay_errors"]) == (2, 1)
            assert len(service.dispatch("session.list", {})["sessions"]) == 1
        finally:
            service.close()

    def test_non_utf8_garbage_is_one_replay_error(self, tmp_path):
        first = persistent_service(tmp_path)
        try:
            session = first.dispatch("session.create", dict(SMALL_SPEC))["session"]
        finally:
            first.close()
        with (tmp_path / "journal" / "requests.jsonl").open("ab") as handle:
            handle.write(b"\xff\xfe garbage\n")

        second = persistent_service(tmp_path, resume=True)
        try:
            journal = second.dispatch("service.status", {})["journal"]
            assert (journal["replayed"], journal["replay_errors"]) == (1, 1)
            listed = second.dispatch("session.list", {})
            assert [row["session"] for row in listed["sessions"]] == [session]
        finally:
            second.close()

    def test_status_reports_journal_counters(self, tmp_path):
        service = persistent_service(tmp_path)
        try:
            service.dispatch("session.create", dict(SMALL_SPEC))
            status = service.dispatch("service.status", {})
        finally:
            service.close()
        assert status["journal"]["recorded"] == 1
        assert status["config"]["persist_dir"].endswith("journal")


class TestRequestJournalUnit:
    def test_entries_skip_header_and_blanks(self, tmp_path):
        journal = RequestJournal(tmp_path)
        journal.open()
        journal.record("session.create", {"params": {"num_buys": 4}})
        journal.record("service.ping", {})  # not journaled: no-op
        journal.close()
        entries = list(RequestJournal(tmp_path).entries())
        assert [entry["method"] for entry in entries] == ["session.create"]

    def test_a_line_that_is_no_request_is_a_replay_error(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        path.write_bytes(
            b'{"journal": "repro-service-requests", "version": 1}\n'
            b'{"params": {}}\n'
            b'{"method": 7, "params": {}}\n'
            b'\xc3'
        )
        journal = RequestJournal(tmp_path)
        assert journal.entries() == []
        assert journal.replay_errors == 3

    def test_an_entry_that_fails_its_check_is_a_replay_error(self, tmp_path):
        """A flipped digit still parses: the check is what catches it."""
        journal = RequestJournal(tmp_path)
        journal.open()
        journal.record("session.create", {"params": {"num_buys": 4}})
        journal.record("session.create", {"params": {"num_buys": 5}})
        journal.close()
        journal.path.write_bytes(journal.path.read_bytes().replace(b'"num_buys":4', b'"num_buys":6'))
        replayed = RequestJournal(tmp_path)
        assert [entry["params"] for entry in replayed.entries()] == [{"params": {"num_buys": 5}}]
        assert replayed.replay_errors == 1

    def test_a_version_1_journal_replays_unchecked(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        path.write_bytes(
            b'{"journal": "repro-service-requests", "version": 1}\n'
            b'{"method":"session.create","params":{"params":{"num_buys":4}}}\n'
        )
        journal = RequestJournal(tmp_path)
        assert [entry["method"] for entry in journal.entries()] == ["session.create"]
        assert journal.replay_errors == 0

