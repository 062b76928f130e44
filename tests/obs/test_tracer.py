"""Unit tests for the Tracer: vocabulary, ordering, digests, and exporters."""

import json
import time

import pytest

from repro.obs import EVENT_KINDS, PHASES, Tracer, activate, active_tracer, deactivate
from repro.obs import runtime


class TestEventRecording:
    def test_unknown_kind_raises(self):
        tracer = Tracer()
        with pytest.raises(ValueError, match="unknown trace event kind"):
            tracer.event("tx.teleport", peer="client-0")

    def test_every_declared_kind_is_accepted(self):
        tracer = Tracer()
        for kind in sorted(EVENT_KINDS):
            tracer.event(kind)
        assert sum(tracer.event_counts().values()) == len(EVENT_KINDS)

    def test_events_and_spans_share_one_seq_order(self):
        tracer = Tracer(clock=lambda: 1.5)
        tracer.event("tx.submit", peer="client-0", tx=b"\x01")
        start = time.perf_counter()
        tracer.phase("mine", start)
        tracer.event("block.build", peer="miner-0")
        records = tracer.records()
        assert [row["seq"] for row in records] == [1, 2, 3]
        assert [row["kind"] for row in records] == ["tx.submit", "phase", "block.build"]
        assert records[1]["phase"] == "mine"

    def test_sim_clock_is_sampled_per_event(self):
        now = {"t": 0.0}
        tracer = Tracer(clock=lambda: now["t"])
        tracer.event("tx.submit")
        now["t"] = 2.25
        tracer.event("tx.include")
        times = [row["sim_time"] for row in tracer.records()]
        assert times == [0.0, 2.25]

    def test_bytes_fields_become_hex_strings(self):
        tracer = Tracer()
        tracer.event(
            "adversary.attack",
            adversary="displacement",
            details={"victim": b"\xab\xcd", "fees": [b"\x01", 2]},
        )
        args = tracer.records()[0]["args"]
        assert args["details"]["victim"] == "0xabcd"
        assert args["details"]["fees"] == ["0x01", 2]
        json.dumps(args)  # fully JSON-serialisable after sanitization

    def test_max_events_cap_counts_drops(self):
        tracer = Tracer(max_events=2)
        for _ in range(5):
            tracer.event("gossip.tx")
        assert len(tracer.records()) == 2
        assert tracer.dropped_events == 3
        assert tracer.summary()["dropped_events"] == 3

    def test_max_events_caps_spans_but_not_phase_totals(self):
        tracer = Tracer(max_events=2)
        for _ in range(5):
            tracer.phase("mine", time.perf_counter())
        assert len(tracer.records()) == 2
        assert tracer.dropped_events == 3
        assert tracer.phase_totals()["mine"]["calls"] == 5


class TestPhaseTotals:
    def test_phase_totals_aggregate_calls_and_seconds(self):
        tracer = Tracer()
        for _ in range(3):
            tracer.phase("state_apply", time.perf_counter())
        tracer.phase("mine", time.perf_counter())
        totals = tracer.phase_totals()
        assert list(totals) == ["mine", "state_apply"]  # sorted
        assert totals["state_apply"]["calls"] == 3
        assert totals["mine"]["calls"] == 1
        assert totals["mine"]["wall_seconds"] >= 0.0

    def test_declared_phases_are_a_closed_tuple(self):
        # Call sites hardcode these names; the CI span check asserts on them.
        assert set(PHASES) == {
            "mine",
            "block_import",
            "validate",
            "state_apply",
            "trie_commit",
            "gossip_encode",
            "metrics_fold",
        }


class TestExports:
    def _populated(self) -> Tracer:
        tracer = Tracer(clock=lambda: 3.0)
        tracer.event("tx.submit", peer="client-0", tx=b"\x02", nonce=0)
        tracer.event("gossip.tx", peer="miner-0", sender="client-0", tx=b"\x02")
        tracer.phase("mine", time.perf_counter())
        return tracer

    def test_jsonl_is_one_sorted_object_per_line(self):
        lines = self._populated().to_jsonl().splitlines()
        assert len(lines) == 3
        rows = [json.loads(line) for line in lines]
        assert [row["seq"] for row in rows] == [1, 2, 3]
        assert all(list(row) == sorted(row) for row in rows)

    def test_chrome_trace_shape(self):
        data = self._populated().to_chrome_trace()
        assert sorted(data) == ["displayTimeUnit", "traceEvents"]
        events = data["traceEvents"]
        instants = [e for e in events if e["ph"] == "i"]
        spans = [e for e in events if e["ph"] == "X"]
        # Sim-time instants live on pid 1 with per-actor tids; phases on pid 2.
        assert {e["pid"] for e in instants} == {1}
        assert {e["pid"] for e in spans} == {2}
        assert instants[0]["ts"] == pytest.approx(3.0 * 1_000_000)
        assert spans[0]["name"] == "mine"
        # Distinct actors get distinct threads, named via metadata events.
        thread_names = {
            e["args"]["name"] for e in events if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {"client-0", "miner-0"} <= thread_names

    def test_write_emits_both_files(self, tmp_path):
        paths = self._populated().write(tmp_path, "trace_test")
        assert paths["jsonl"].name == "trace_test.jsonl"
        assert paths["chrome"].name == "trace_test.trace.json"
        loaded = json.loads(paths["chrome"].read_text(encoding="utf-8"))
        assert loaded["traceEvents"]


class TestRuntimeActivation:
    def test_activate_deactivate_roundtrip(self):
        assert active_tracer() is None
        tracer = Tracer()
        activate(tracer)
        try:
            assert runtime.TRACER is tracer
            assert active_tracer() is tracer
        finally:
            deactivate()
        assert runtime.TRACER is None
