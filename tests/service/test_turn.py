"""The one engine turn: fairness, per-session tracers, and single-writer sessions.

Every session-plane request runs holding the server's one
:class:`~repro.service.server.EngineTurn`.  These tests pin what that buys:
a long ``session.advance`` passes the turn on between block-interval steps
(so another session's status stays fast), an observed session's tracer
records exactly its own requests (so ``session.create`` can accept
``observe``), and a state change to a session waits out that session's
own advance.
"""

from __future__ import annotations

import json
import sys
import threading
import time

import pytest

import repro.contracts  # noqa: F401  (registers the shipped contracts)
from repro.api.engine import build_simulation, run_simulation
from repro.core.percentiles import percentile
from repro.obs import probe_names
from repro.obs import runtime as obs_runtime
from repro.service import ServiceClient, ServiceConfig, ServiceServer
from repro.service.server import EngineTurn, SimulatorService
from repro.service import session as session_module
from repro.service.session import build_session_spec

OBSERVED = {"params": {"num_buys": 4}, "observe": True}


def start_in_thread(work):
    """Run ``work`` on a thread; return (thread, slot) with its result or error."""
    slot = {}

    def body():
        try:
            slot["result"] = work()
        except Exception as error:  # noqa: BLE001 - the outcome is the assertion
            slot["error"] = error

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    return thread, slot


def wait_until(condition, seconds=30.0):
    deadline = time.monotonic() + seconds
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def without_wall_clock(value):
    """``value`` with every key starting ``wall`` dropped, at any depth."""
    if isinstance(value, dict):
        return {key: without_wall_clock(item) for key, item in value.items() if not key.startswith("wall")}
    if isinstance(value, list):
        return [without_wall_clock(item) for item in value]
    return value


@pytest.fixture
def service():
    instance = SimulatorService(ServiceConfig(idle_timeout=None, retention_default=None))
    yield instance
    instance.close()


# -- fairness ---------------------------------------------------------------------


def test_status_stays_fast_while_another_session_advances_50k_blocks():
    """Session B's ``session.status`` p99 stays under 100 ms over HTTP while
    session A runs a 50,000-block advance, even at ``workers=1``."""
    server = ServiceServer(ServiceConfig(port=0, workers=1, idle_timeout=None)).start()
    client = ServiceClient(server.url, timeout=120.0)
    advance = None
    try:
        first, second = (client.create_session(params={"num_buys": 4}, seed=seed) for seed in (1, 2))
        advance, _slot = start_in_thread(lambda: client.advance(first, blocks=50_000))
        wait_until(lambda: client.status()["stats"]["in_flight"] >= 2)
        waits_ms = []
        for _ in range(50):
            started = time.perf_counter()
            client.session_status(second)
            waits_ms.append((time.perf_counter() - started) * 1000.0)
        assert percentile(waits_ms, 0.99) < 100.0, sorted(waits_ms)[-5:]
        assert advance.is_alive(), "the statuses did not overlap the advance"
    finally:
        server.shutdown()  # aborts the advance at its next step
        client.close()
        if advance is not None:
            advance.join(timeout=30)
            assert not advance.is_alive()


def test_a_sessions_requests_wait_out_its_own_advance(service):
    """A session's requests never interleave with its own advance: they
    pass the turn back to it until it is done."""
    session = service.dispatch("session.create", {"params": {"num_buys": 4}, "accounts": ["alice"]})["session"]
    advance, slot = start_in_thread(
        lambda: service.dispatch("session.advance", {"session": session, "blocks": 2_000})
    )
    wait_until(lambda: service._sessions[session].advancing)
    status = service.dispatch("session.status", {"session": session})
    submitted = service.dispatch("tx.submit", {"session": session, "account": "alice", "to": "anyone"})
    advance.join(timeout=60)
    assert not advance.is_alive() and "error" not in slot
    assert status["now"] == submitted["submitted_at"] == slot["result"]["now"]


# -- per-session tracers ------------------------------------------------------------


def test_observed_served_run_matches_the_direct_observed_run(service):
    session = service.dispatch("session.create", dict(OBSERVED, seed=3))["session"]
    served = json.loads(json.dumps(service.dispatch("session.run", {"session": session}), sort_keys=True))
    direct = json.loads(
        json.dumps(run_simulation(build_session_spec(dict(OBSERVED, seed=3))).summary(), sort_keys=True)
    )
    # Process-wide probes (memo and cache counters, live states, the
    # server's own ``service`` probe) describe the process the run shared,
    # not the run; the run's own probes are compared.
    for summary in (served, direct):
        for name in probe_names():
            summary["observability"]["probes"].pop(name, None)
    assert served["observability"]["events"] > 0
    assert without_wall_clock(served) == without_wall_clock(direct)
    assert obs_runtime.TRACER is None


def test_alternately_advanced_observed_sessions_each_record_only_their_own(service):
    specs = [dict(OBSERVED, seed=seed) for seed in (4, 5)]
    sessions = [service.dispatch("session.create", dict(spec))["session"] for spec in specs]
    for _ in range(6):
        for session in sessions:
            service.dispatch("session.advance", {"session": session, "blocks": 1})
    assert obs_runtime.TRACER is None
    for spec, session in zip(specs, sessions):
        alone = build_simulation(build_session_spec(dict(spec)))
        obs_runtime.activate(alone.tracer)
        try:
            alone.start()
            for _ in range(6):
                target = alone.simulator.now + alone.spec.block_interval
                while alone.simulator.now < target:
                    alone.simulator.run_until(min(alone.simulator.now + alone.spec.block_interval, target))
                    alone.metrics.resolve_from_chain(alone.reference_chain)
        finally:
            obs_runtime.deactivate()
        recorded = service._sessions[session].handle.tracer.records()
        assert recorded
        assert without_wall_clock(recorded) == without_wall_clock(alone.tracer.records())


def test_an_observed_sessions_trace_is_a_bounded_prefix(service, monkeypatch):
    monkeypatch.setattr(session_module, "SERVED_TRACE_EVENTS", 50)
    session = service.dispatch("session.create", dict(OBSERVED))["session"]
    service.dispatch("session.advance", {"session": session, "blocks": 30})
    tracer = service._sessions[session].handle.tracer
    assert len(tracer._events) == len(tracer._spans) == 50
    assert tracer.dropped_events > 0


# -- the turn itself --------------------------------------------------------------


def test_turn_is_single_holder_under_contention():
    """More threads than cores, a short switch interval, and a
    read-modify-write inside the turn: a second holder would lose updates."""
    turn = EngineTurn(limit=8)
    state = {"count": 0, "holders": 0, "overlaps": 0, "most_waiting": 0}
    start = threading.Barrier(8)

    def worker():
        start.wait(timeout=10)
        for index in range(200):
            with turn:
                state["holders"] += 1
                state["overlaps"] += state["holders"] > 1
                state["most_waiting"] = max(state["most_waiting"], len(turn._waiting))
                count = state["count"]
                time.sleep(0)
                state["count"] = count + 1
                state["holders"] -= 1
                if index % 10 == 0:
                    turn.pass_on()

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert state["count"] == 8 * 200 and state["holders"] == state["overlaps"] == 0
    assert state["most_waiting"] >= 2, "the threads never contended"
    assert not turn._waiting and turn._owner is None


def test_idle_sessions_are_swept_after_another_sessions_request(service):
    idle, busy = (service.dispatch("session.create", {"params": {"num_buys": 4}, "seed": seed})["session"] for seed in (1, 2))
    service._sessions[idle].last_used -= 10.0
    service.config.idle_timeout = 5.0
    try:
        service.dispatch("session.status", {"session": busy})
        assert sorted(service._sessions) == [busy]
        assert service.stats.sessions_evicted == 1
    finally:
        service.config.idle_timeout = None
