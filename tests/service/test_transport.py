"""The persistent transport, end to end against a real ``ServiceServer``.

What keep-alive changes and must not break: one thread's requests share one
connection (and eight threads' share eight); a restarted or idle-closed peer
costs a reconnect but never a retry — even for ``tx.submit``, because the
staleness probe runs before the first byte leaves; a connection lost *after*
the request was written follows the old rule exactly (state-changing verbs
are sent once, reads retry on the seeded schedule); shutdown leaves no
handler thread parked and no client hanging; and the request trace is a ring
whose drops are counted and whose aggregates survive in per-method counters.
"""

from __future__ import annotations

import json
import os
import random
import resource
import socket
import sys
import threading
import time

import pytest

import repro.contracts  # noqa: F401  (registers the shipped contracts)
from repro.contracts.sereth import SLOT_P_MARK
from repro.contracts.simple_storage import SimpleStorageContract
from repro.service import ServiceClient, ServiceConfig, ServiceServer
from repro.service.errors import (
    MethodNotFoundError,
    ServerShutdownError,
    ServiceConnectionError,
    ServiceRPCError,
)
from repro.service.server import TRACE_RING, SimulatorService, _RequestHandler

pytestmark = pytest.mark.filterwarnings("error")

SMALL_SPEC = {"params": {"num_buys": 4}, "accounts": ["alice"]}
SET_VALUE = "0x" + SimpleStorageContract.function_by_name("set_value").abi.encode_call(7).hex()


def start_server(**config):
    config.setdefault("port", 0)
    config.setdefault("workers", 2)
    config.setdefault("idle_timeout", None)
    return ServiceServer(ServiceConfig(**config)).start()


@pytest.fixture
def server():
    instance = start_server()
    yield instance
    instance.shutdown()


def handler_threads():
    return {t for t in threading.enumerate() if "process_request_thread" in t.name}


# -- (a) connections are reused ------------------------------------------------------


def test_one_thread_reuses_one_connection_for_every_verb(server):
    with ServiceClient(server.url, timeout=30.0) as client:
        session = client.create_session(**SMALL_SPEC)
        for index in range(49):
            assert client.ping()["ok"] is True
            assert client.healthz() == {"ok": True}
            assert client.session_status(session)["session"] == session
            client.advance(session, blocks=1) if index % 7 == 0 else client.hms_status(session)
        assert client.retries_performed == 0
    # 1 create + 49 x 4 verbs, all on the one connection the thread opened.
    assert server.service.stats.connections_accepted == 1


def test_state_storage_reads_the_mark_contract_call_returns(server):
    """``state.storage`` on the Sereth mark slot is the committed mark: with
    nothing pending it agrees with the READ-UNCOMMITTED ``mark`` call (RAA
    fills the placeholder argument) and with the committed ``current`` view."""
    with ServiceClient(server.url, timeout=30.0) as client:
        session = client.create_session(**SMALL_SPEC)
        for _ in range(12):
            client.advance(session, blocks=1)
            (watched,) = client.hms_status(session)["watched"]
            if watched["installed"] and watched["pool_size"] == 0:
                break
        assert watched["source"] == "committed", watched
        contract = watched["contract"]
        placeholder = ["0x" + "00" * 32] * 3
        (mark,) = client.call_contract_method(session, contract, "mark", [placeholder])["values"]
        committed = client.call_contract_method(session, contract, "current", allow_raa=False)
        word = client.request(
            "state.storage", {"session": session, "contract": contract, "slot": SLOT_P_MARK}
        )["value"]
        assert word == mark == committed["values"][1]
        assert word != "0x" + "00" * 32


def test_one_client_shared_by_eight_threads_opens_eight_connections(server):
    answers = {}
    all_alive = threading.Barrier(8)  # no thread ends (and frees its ident) early

    def worker(index, client, session):
        seen = [client.session_status(session)["session"] for _ in range(25)]
        seen.append(client.ping()["ok"])
        answers[index] = seen
        all_alive.wait(timeout=60)

    with ServiceClient(server.url, timeout=30.0) as client:
        sessions = [client.create_session(**SMALL_SPEC, seed=index) for index in range(8)]
        before = server.service.stats.connections_accepted
        threads = [
            threading.Thread(target=worker, args=(index, client, session))
            for index, session in enumerate(sessions)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert server.service.stats.connections_accepted - before == 8
        for index, session in enumerate(sessions):
            assert answers[index] == [session] * 25 + [True]
        assert client.retries_performed == 0
    # close() owns every thread's socket, not just the caller's.
    assert all(connection.sock is None for connection in client._connections.values())


# -- (b) a stale connection costs a reconnect, never a retry -------------------------


def test_restarted_server_is_reached_on_a_fresh_connection_without_a_retry():
    first = start_server()
    port = first.port
    with ServiceClient(first.url, timeout=30.0, sleep=pytest.fail) as client:
        client.ping()
        first.shutdown()
        second = start_server(port=port)
        try:
            assert client.ping()["ok"] is True
            assert client.retries_performed == 0
            assert second.service.stats.requests == 1
            assert second.service.stats.connections_accepted == 1
        finally:
            second.shutdown()


def test_restarted_server_accepts_tx_submit_without_a_retry(tmp_path):
    """The non-idempotent case: the probe runs before any byte is sent, so the
    reconnect cannot double-apply — the resumed server sees the submit once."""
    persist = {"persist_dir": str(tmp_path / "journal"), "retention_default": None}
    first = start_server(**persist)
    port = first.port
    with ServiceClient(first.url, timeout=30.0, sleep=pytest.fail) as client:
        session = client.create_session(**SMALL_SPEC)
        deployed = client.request(
            "contract.deploy", {"session": session, "account": "alice", "code": "SimpleStorage"}
        )
        client.advance(session, blocks=2)
        first.shutdown()
        second = start_server(port=port, resume=True, **persist)
        try:
            replayed = second.service.stats.requests
            submitted = client.submit_transaction(
                session, "alice", deployed["contract_address"], data=SET_VALUE
            )
            assert submitted["transaction_hash"].startswith("0x")
            assert client.retries_performed == 0
            assert second.service.stats.requests == replayed + 1
            assert second.service.stats.methods["tx.submit"][:2] == [1, 0]
        finally:
            second.shutdown()


def test_idle_timeout_closes_the_connection_and_the_client_reconnects(monkeypatch):
    monkeypatch.setattr(_RequestHandler, "timeout", 0.2)
    server = start_server()
    try:
        with socket.create_connection((server.host, server.port), timeout=5.0) as silent:
            assert silent.recv(1) == b""  # closed by the server, not by our timeout
        with ServiceClient(server.url, timeout=30.0, sleep=pytest.fail) as client:
            client.ping()
            accepted = server.service.stats.connections_accepted
            time.sleep(0.6)
            assert client.ping()["ok"] is True
            assert server.service.stats.connections_accepted == accepted + 1
            assert client.retries_performed == 0
    finally:
        server.shutdown()


def test_staleness_probe_works_on_a_socket_numbered_past_select_limit(server):
    """``select()`` refuses fds >= 1024 (FD_SETSIZE); a busy load generator
    reaches them.  The probe must not, or every reuse raises ``ValueError``."""
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if hard != resource.RLIM_INFINITY and hard < 1200:
        pytest.skip(f"cannot open 1024+ descriptors (hard limit {hard})")
    resource.setrlimit(resource.RLIMIT_NOFILE, (max(soft, 1200), hard))
    padding = []
    try:
        while not padding or padding[-1] < 1024:
            padding.append(os.dup(0))
        with ServiceClient(server.url, timeout=30.0, sleep=pytest.fail) as client:
            client.ping()
            connection = client._connections[threading.get_ident()]
            assert connection.sock.fileno() >= 1024
            assert client.ping()["ok"] is True  # probes the reused socket
            assert server.service.stats.connections_accepted == 1
    finally:
        for descriptor in padding:
            os.close(descriptor)
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))


# -- (c) a connection lost after the request was written -----------------------------


class KillingPeer:
    """A TCP listener that reads each request in full, then drops the
    connection unanswered ``kills`` times before answering like a server."""

    def __init__(self, kills):
        self.kills = kills
        self.requests = []
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.05)  # so _serve notices close()
        self.closed = threading.Event()
        self.url = "http://127.0.0.1:%d" % self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while not self.closed.is_set():
            try:
                connection, _ = self.listener.accept()
            except socket.timeout:
                continue
            connection.settimeout(5.0)
            with connection, connection.makefile("rb") as stream:
                length = 0
                for line in iter(stream.readline, b"\r\n"):
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":")[1])
                envelope = json.loads(stream.read(length))
                self.requests.append(envelope["method"])
                if len(self.requests) > self.kills:
                    body = json.dumps({"jsonrpc": "2.0", "id": envelope["id"], "result": {"ok": True}})
                    connection.sendall(
                        b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body.encode())
                    )

    def close(self):
        self.closed.set()
        self.thread.join(timeout=5)
        self.listener.close()


@pytest.fixture
def killing_peer(request):
    peer = KillingPeer(kills=request.param)
    yield peer
    peer.close()


@pytest.mark.parametrize("killing_peer", [5], indirect=True)
def test_tx_submit_lost_after_the_write_is_sent_exactly_once(killing_peer):
    slept = []
    with ServiceClient(killing_peer.url, timeout=5.0, retries=3, sleep=slept.append) as client:
        with pytest.raises(ServiceConnectionError):
            client.submit_transaction("s", "alice", "0x00")
        assert killing_peer.requests == ["tx.submit"]
        assert slept == [] and client.retries_performed == 0
        # ... and the error path closed the connection it poisoned.
        assert all(connection.sock is None for connection in client._connections.values())


@pytest.mark.parametrize("killing_peer", [2], indirect=True)
def test_session_status_lost_after_the_write_retries_on_the_seeded_schedule(killing_peer):
    slept = []
    with ServiceClient(
        killing_peer.url, timeout=5.0, retries=3, backoff=0.1, backoff_cap=1.0, retry_seed=42,
        sleep=slept.append,
    ) as client:
        assert client.session_status("s") == {"ok": True}
        assert killing_peer.requests == ["session.status"] * 3
        assert client.retries_performed == 2
    jitter = random.Random(42)
    assert slept == [0.1 * 2 ** attempt * jitter.uniform(0.5, 1.5) for attempt in range(2)]


# -- (d) keep-alive is cheap: no Nagle, one write per response ------------------------


def test_accepted_sockets_disable_nagle_and_a_response_is_one_write(server):
    nodelay, writes = [], []

    class Recording(_RequestHandler):
        def setup(self):
            super().setup()
            nodelay.append(self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))
            write = self.wfile.write
            self.wfile.write = lambda data: (writes.append(bytes(data)), write(data))[1]

    server.httpd.RequestHandlerClass = Recording
    with ServiceClient(server.url, timeout=30.0) as client:
        client.ping()
        client.healthz()
        with pytest.raises(ServiceRPCError):
            client.request("no.such.method")
    assert nodelay and all(nodelay)
    assert len(writes) == 3
    for written in writes:
        head, _, body = written.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Length: %d" % len(body) in head and json.loads(body)


# -- (e) shutdown ends every connection ----------------------------------------------


def test_shutdown_leaves_no_handler_thread_and_idle_clients_fail_typed():
    already_running = handler_threads()
    server = start_server()
    clients = [ServiceClient(server.url, timeout=5.0, retries=0) for _ in range(3)]
    try:
        for client in clients:
            client.ping()  # three idle keep-alive connections, parked in readline
        assert len(handler_threads() - already_running) == 3
        server.shutdown()
        assert handler_threads() - already_running == set()
        assert server.httpd._open == {}
        for client in clients:
            started = time.monotonic()
            with pytest.raises(ServiceConnectionError):
                client.ping()
            assert time.monotonic() - started < 5.0
    finally:
        server.shutdown()
        for client in clients:
            client.close()


def test_request_waiting_for_the_engine_turn_fails_typed_when_the_server_closes():
    server = start_server(workers=1)
    turn = server.service.turn
    outcome = []

    def waiter():
        try:
            outcome.append(server.execute("session.list", {}))
        except ServerShutdownError as error:
            outcome.append((error, time.perf_counter()))

    try:
        with turn:  # the one turn is held until after the close
            thread = threading.Thread(target=waiter)
            thread.start()
            deadline = time.monotonic() + 5.0
            while not turn._waiting and time.monotonic() < deadline:
                time.sleep(0.005)
            assert outcome == [] and len(turn._waiting) == 1
            closed_at = time.perf_counter()
            server.service.begin_shutdown()
            thread.join(timeout=5)
            assert not thread.is_alive()
            error, failed_at = outcome[0]
            assert isinstance(error, ServerShutdownError)
            # The close wakes the waiter: it does not notice on a later poll.
            assert failed_at - closed_at < 0.2
            assert not turn._waiting
    finally:
        server.shutdown()


# -- (f) the request trace is a ring; the aggregates are counters --------------------


@pytest.fixture
def service():
    instance = SimulatorService(ServiceConfig(idle_timeout=None, retention_default=None))
    yield instance
    instance.close()


def test_ten_thousand_pings_fill_the_ring_and_count_the_rest(service):
    for _ in range(10_000):
        service.dispatch("service.ping", {})
    assert len(service.tracer.records()) == TRACE_RING
    assert service.tracer.dropped_events == 10_000 - TRACE_RING
    # The ring keeps the most recent events, not the first ones.
    assert service.tracer.records()[-1]["seq"] == 10_000
    stats = service.dispatch("service.status", {})["stats"]
    assert stats["dropped_events"] == 10_000 - TRACE_RING
    ping = stats["methods"]["service.ping"]
    assert (ping["count"], ping["errors"]) == (10_000, 0) and ping["total_ms"] > 0.0
    from repro.obs import snapshot

    assert snapshot()["service"]["methods"]["service.ping"]["count"] == 10_000


def test_per_method_counters_are_exact_under_contention(service):
    def worker():
        for index in range(500):
            if index % 5:
                service.dispatch("service.ping", {})
            else:
                with pytest.raises(MethodNotFoundError):
                    service.dispatch(f"bogus.{index}", {})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    methods = service.dispatch("service.status", {})["stats"]["methods"]
    assert methods["service.ping"] == {
        "count": 3200, "errors": 0, "total_ms": methods["service.ping"]["total_ms"]
    }
    # 800 distinct hostile names share one row instead of growing the table.
    assert (methods["(unknown)"]["count"], methods["(unknown)"]["errors"]) == (800, 800)
    assert set(methods) == {"service.ping", "(unknown)"}
