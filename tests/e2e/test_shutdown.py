"""Kill the server mid-request: every caller gets a typed error, nobody hangs.

This suite always spawns its *own* server (never the shared fixture, which
CI may point at a long-lived deployment).  Two sessions each run a
``session.advance`` far past any horizon the test tolerates; they take
turns at the one engine turn, so at any moment one holds it and the other
waits in line.  ``service.shutdown`` — a control-plane method that never
takes the turn — must then fail both closed: the in-flight advance aborts
at its next block-interval step and the waiting one is woken and refused,
each as a typed ``server_shutdown``-family error envelope, all within a
bounded wait.  The scenario is a race between ``shutdown()`` and three
connections, so it also runs ten times over.
"""

from __future__ import annotations

import threading
import time

import pytest

import repro.contracts  # noqa: F401  (registers the shipped contracts)
from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceConnectionError,
    ServiceRPCError,
    ServiceServer,
)

TYPED_SHUTDOWN_KINDS = {"server_shutdown", "session_closed"}


def outcome_of(worker):
    """Run ``worker`` in a thread; return a mutable slot it reports into."""
    slot = {"error": None, "result": None, "thread": None}

    def body():
        try:
            slot["result"] = worker()
        except (ServiceRPCError, ServiceConnectionError) as error:
            slot["error"] = error

    slot["thread"] = threading.Thread(target=body, daemon=True)
    slot["thread"].start()
    return slot


def assert_failed_closed(slot, label):
    slot["thread"].join(timeout=30)
    assert not slot["thread"].is_alive(), f"{label} hung past shutdown"
    assert slot["result"] is None, f"{label} unexpectedly succeeded: {slot['result']!r}"
    error = slot["error"]
    assert error is not None, f"{label} neither returned nor raised"
    if isinstance(error, ServiceRPCError):
        assert error.kind in TYPED_SHUTDOWN_KINDS, f"{label} got kind {error.kind!r}"
    # A ServiceConnectionError is the other legal outcome: the socket died
    # with the server — still a typed exception, still not a hang.


def test_shutdown_mid_request_fails_typed_not_hung():
    shutdown_mid_request_scenario()


@pytest.mark.parametrize("attempt", range(10))
def test_shutdown_mid_request_repeated(attempt):
    shutdown_mid_request_scenario()


def shutdown_mid_request_scenario():
    server = ServiceServer(
        ServiceConfig(port=0, workers=1, idle_timeout=None, retention_default=None)
    )
    server.start()
    client = ServiceClient(server.url, timeout=120.0)
    try:
        sessions = [client.create_session(params={"num_buys": 4}, seed=seed) for seed in (5, 6)]
        advances = [
            outcome_of(lambda session=session: client.advance(session, seconds=1_000_000.0))
            for session in sessions
        ]

        # service.status never takes the turn, so it stays answerable while
        # the advances trade it — wait until both are genuinely in flight.
        # (The status request counts itself, so "both advances too" reads 3.)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if client.status()["stats"]["in_flight"] >= 3:
                break
            time.sleep(0.02)
        else:
            pytest.fail("the long advances never became in-flight")

        assert client.shutdown_server() == {"stopping": True}

        for index, advance in enumerate(advances):
            assert_failed_closed(advance, f"advance {index}")
        assert server.wait(timeout=30), "ServiceServer.shutdown never completed"

        # The dead server refuses follow-ups as typed exceptions too.
        with pytest.raises((ServiceRPCError, ServiceConnectionError)):
            client.ping()
    finally:
        server.shutdown()  # idempotent
        client.close()


def test_shutdown_is_idempotent_and_reports_closed():
    server = ServiceServer(ServiceConfig(port=0, workers=1, idle_timeout=None))
    server.start()
    with ServiceClient(server.url, timeout=30.0) as client:
        client.create_session(params={"num_buys": 4})
    server.shutdown()
    server.shutdown()
    assert server.service.closed.is_set()
    assert not server.service._sessions
