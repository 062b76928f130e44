"""Client retry/backoff and the server's bounded-admission overload path.

The retry schedule is deterministic by contract (seeded jitter), so the
tests recompute it independently and assert exact delays.  The overload
tests saturate the engine turn for real: the test thread holds the turn
while enough requests wait in line for it to fill the admission bound.
"""

from __future__ import annotations

import random
import threading
import time
from contextlib import contextmanager

import pytest

import repro.contracts  # noqa: F401  (registers the shipped contracts)
from repro.service.client import ServiceClient
from repro.service.verbs import VERBS
from repro.service.errors import (
    ServerOverloadedError,
    ServiceConnectionError,
    ServiceRPCError,
    error_from_kind,
)
from repro.service.server import ServiceConfig, ServiceServer

pytestmark = pytest.mark.filterwarnings("error")


def flaky_client(failures, retries=3, error=None, **kwargs):
    """A client whose transport fails ``failures`` times before succeeding.

    Sleeps are recorded, never slept; returns (client, slept_delays).
    """
    slept = []
    client = ServiceClient(
        "http://unused.invalid",
        retries=retries,
        backoff=0.1,
        backoff_cap=1.0,
        retry_seed=42,
        sleep=slept.append,
        **kwargs,
    )
    state = {"remaining": failures}

    def fake_request_once(method, params):
        if state["remaining"] > 0:
            state["remaining"] -= 1
            raise error or ServiceConnectionError("connection reset")
        return {"ok": True, "method": method}

    client._request_once = fake_request_once
    return client, slept


def expected_delays(count, backoff=0.1, cap=1.0, seed=42):
    jitter = random.Random(seed)
    return [
        min(cap, backoff * 2 ** (attempt - 1)) * jitter.uniform(0.5, 1.5)
        for attempt in range(1, count + 1)
    ]


class TestRetrySchedule:
    def test_idempotent_method_retries_until_success(self):
        client, slept = flaky_client(failures=2)
        result = client.request("service.ping")
        assert result == {"ok": True, "method": "service.ping"}
        assert client.retries_performed == 2
        assert slept == expected_delays(2)

    def test_schedule_is_deterministic_per_seed(self):
        first = flaky_client(failures=3)
        second = flaky_client(failures=3)
        first[0].request("session.list")
        second[0].request("session.list")
        assert first[1] == second[1]

    def test_backoff_caps_at_backoff_cap(self):
        client, slept = flaky_client(failures=6, retries=7)
        client.request("service.ping")
        # Delays 5 and 6 hit the cap: base is min(1.0, 0.1 * 2**(n-1)).
        assert slept == expected_delays(6)
        assert max(slept) <= 1.0 * 1.5

    def test_exhausted_retries_raise_the_last_error(self):
        client, slept = flaky_client(failures=10, retries=2)
        with pytest.raises(ServiceConnectionError):
            client.request("service.ping")
        assert len(slept) == 2

    def test_non_idempotent_methods_never_retry(self):
        for method in ("tx.submit", "session.advance", "contract.deploy",
                       "session.create", "session.close", "service.shutdown"):
            assert not VERBS[method].idempotent
            client, slept = flaky_client(failures=1)
            with pytest.raises(ServiceConnectionError):
                client.request(method)
            assert slept == []
            assert client.retries_performed == 0

    def test_overloaded_rpc_error_is_retried_with_retry_after_floor(self):
        overloaded = ServiceRPCError(
            -32006, "busy", {"kind": "server_overloaded", "retry_after": 0.9}
        )
        client, slept = flaky_client(failures=1, error=overloaded)
        client.request("session.summary", {"session": "s"})
        assert client.retries_performed == 1
        # First backoff would be ~0.1x jitter; the server's hint wins.
        assert slept == [0.9]

    def test_other_rpc_errors_never_retry(self):
        not_found = ServiceRPCError(-32001, "nope", {"kind": "session_not_found"})
        client, slept = flaky_client(failures=1, error=not_found)
        with pytest.raises(ServiceRPCError):
            client.request("session.summary", {"session": "s"})
        assert slept == []

    def test_retry_validation(self):
        with pytest.raises(ValueError):
            ServiceClient("http://x", retries=-1)
        with pytest.raises(ValueError):
            ServiceClient("http://x", backoff=0.5, backoff_cap=0.1)


@contextmanager
def saturated(server):
    """Hold the engine turn while ``limit - 1`` requests wait in line for it;
    yields the waiters' outcomes, complete once the block exits."""
    turn = server.service.turn
    outcomes = []
    waiters = [
        threading.Thread(target=lambda: outcomes.append(server.execute("session.list", {})))
        for _ in range(turn.limit - 1)
    ]
    with turn:
        for waiter in waiters:
            waiter.start()
        deadline = time.monotonic() + 5.0
        while len(turn._waiting) < len(waiters) and time.monotonic() < deadline:
            time.sleep(0.005)
        assert len(turn._waiting) == len(waiters)
        yield outcomes
    for waiter in waiters:
        waiter.join(timeout=5)
        assert not waiter.is_alive()


class TestOverloadAdmission:
    @pytest.fixture
    def server(self):
        instance = ServiceServer(ServiceConfig(port=0, workers=1, idle_timeout=None))
        instance.start()
        yield instance
        instance.shutdown()

    def test_saturated_server_refuses_with_retry_after(self, server):
        # workers=1 → admission limit 3: the holder and two waiters.
        assert server.service.turn.limit == 3
        with saturated(server):
            started = time.perf_counter()
            with pytest.raises(ServerOverloadedError) as excinfo:
                server.execute("session.list", {})
            assert time.perf_counter() - started < 0.1
            assert excinfo.value.retry_after > 0
            assert server.service.stats.rejected_overload == 1

    def test_control_plane_bypasses_admission(self, server):
        with saturated(server):
            result = server.execute("service.ping", {})
            assert result["ok"] is True

    def test_admission_recovers_after_release(self, server):
        with saturated(server) as outcomes:
            pass
        assert outcomes == [{"sessions": []}] * 2
        result = server.execute("session.list", {})
        assert result["sessions"] == []

    def test_error_taxonomy_roundtrip(self):
        error = error_from_kind("server_overloaded", "busy")
        assert isinstance(error, ServerOverloadedError)
        assert ServerOverloadedError("busy", retry_after=0.25).retry_after == 0.25


class TestHealthz:
    def test_healthz_roundtrip(self):
        server = ServiceServer(ServiceConfig(port=0, workers=1, idle_timeout=None))
        server.start()
        try:
            with ServiceClient(server.url, timeout=30.0) as client:
                assert client.healthz() == {"ok": True}
        finally:
            server.shutdown()
