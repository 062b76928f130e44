"""The simulator-as-a-service facade: JSON-RPC 2.0 over hand-framed HTTP/1.1.

Two layers, deliberately separable:

* :class:`SimulatorService` — the transport-independent dispatcher.  It owns
  the session table, the idle-eviction loop, the request counters behind the
  ``service`` probe, and a wall-clock :class:`~repro.obs.tracer.Tracer` of
  request-lifecycle events (``rpc.request``/``rpc.error``/``session.*``).
  Unit tests drive :meth:`SimulatorService.dispatch` directly.
* :class:`ServiceServer` — a ``socketserver.ThreadingTCPServer`` with
  keep-alive connections, one thread per *connection*.  The connection's
  thread reads each request with the :mod:`~repro.service.http11` codec,
  runs it inline and answers in one write; what the codec refuses (chunked
  bodies, a hostile or over-limit ``Content-Length``) gets a typed error
  and ``Connection: close`` before any body byte is read, and ``curl`` /
  ``urllib`` remain supported clients.  *Session* methods first take one
  of ``workers`` engine slots (a semaphore, so at most ``workers`` engines
  run at once); the verbs :mod:`~repro.service.verbs` declares ``control``
  (``service.*``, ``registry.list``, ``obs.probes``) skip the slots so a
  saturated server can still answer pings and an operator can always shut
  it down.

The fail-closed contract on shutdown: new requests are refused with
``server_shutdown``, requests waiting for an engine slot fail with the same
typed error, in-flight ``session.advance`` loops abort at the next
block-interval step, and idle keep-alive connections are closed — a killed
server answers with a typed error envelope or EOF, never a hang.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time
from dataclasses import dataclass, field
from http import HTTPStatus
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..api.checkpoint import spec_digest
from ..obs.probes import register_probe, snapshot as probe_snapshot, unregister_probe
from ..obs.tracer import Tracer
from .catalog import registry_catalog
from .errors import (
    ExecutionError,
    MethodNotFoundError,
    RPC_INVALID_REQUEST,
    RPC_PARSE_ERROR,
    ServerOverloadedError,
    ServerShutdownError,
    ServiceError,
    SessionNotFoundError,
    TooManySessionsError,
)
from .http11 import ProtocolError, frame, read_body, read_head
from .persist import RequestJournal
from .session import ServiceSession, build_session_spec, session_id_for
from .verbs import VERBS

__all__ = ["ServiceConfig", "ServiceStats", "SimulatorService", "ServiceServer"]

TRACE_RING = 4096
"""The request-lifecycle trace keeps this many most-recent events; older
ones are dropped (and counted in ``dropped_events``), so a long-lived
server's memory does not grow per request.  Aggregates survive in the
per-method counters of ``service.status``."""


@dataclass
class ServiceConfig:
    """Everything one server instance is allowed to do."""

    host: str = "127.0.0.1"
    port: int = 8547
    workers: int = 4
    """Engine concurrency: at most this many session methods run at once."""
    idle_timeout: Optional[float] = 300.0
    """Close sessions idle longer than this many wall seconds (None: never)."""
    retention_default: Optional[int] = 64
    """Retention applied to sessions whose spec asks for none, so a
    long-lived server inherits the bounded-memory contract by default.
    ``None`` leaves unbounded history to sessions that want it."""
    max_sessions: int = 64
    trace_dir: Optional[str] = None
    """Where shutdown writes the request-lifecycle trace + probe snapshot."""
    max_queue: Optional[int] = None
    """Bounded admission: refuse session methods (typed ``server_overloaded``
    with a ``retry_after`` hint) once more than ``workers + max_queue`` are
    pending, instead of queueing without bound.  ``None`` derives
    ``2 * workers``."""
    persist_dir: Optional[str] = None
    """Journal successful state-changing requests to ``<dir>/requests.jsonl``
    (fsynced per append) so a killed server can be rebuilt with ``resume``."""
    resume: bool = False
    """Replay ``persist_dir``'s journal through the dispatcher before serving,
    rebuilding byte-identical sessions (same specs, seeds, and ids)."""


@dataclass
class ServiceStats:
    """The counters behind ``service.status`` and the ``service`` probe."""

    requests: int = 0
    errors: int = 0
    in_flight: int = 0
    rejected_overload: int = 0
    sessions_created: int = 0
    sessions_closed: int = 0
    sessions_evicted: int = 0
    connections_accepted: int = 0
    methods: Dict[str, List[float]] = field(default_factory=dict)
    """Cumulative ``[count, errors, total_ms]`` per method — what the ring-
    buffered trace can no longer be summed for."""
    started_at: float = field(default_factory=time.monotonic)

    def as_dict(self, open_sessions: int, dropped_events: int) -> Dict[str, Any]:
        return {
            "requests": self.requests,
            "errors": self.errors,
            "in_flight": self.in_flight,
            "rejected_overload": self.rejected_overload,
            "connections_accepted": self.connections_accepted,
            "dropped_events": dropped_events,
            "methods": {
                method: {"count": int(count), "errors": int(errors), "total_ms": total_ms}
                for method, (count, errors, total_ms) in sorted(self.methods.items())
            },
            "sessions_open": open_sessions,
            "sessions_created": self.sessions_created,
            "sessions_closed": self.sessions_closed,
            "sessions_evicted": self.sessions_evicted,
            "uptime_seconds": time.monotonic() - self.started_at,
        }


class SimulatorService:
    """The dispatcher: session table + verb routing + observability."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.stats = ServiceStats()
        self.closed = threading.Event()
        self._sessions: Dict[str, ServiceSession] = {}
        self._sessions_lock = threading.Lock()
        self._digest_ordinals: Dict[str, int] = {}
        self._trace_lock = threading.Lock()
        self._teardown_lock = threading.Lock()
        self._teardown_done = False
        origin = time.perf_counter()
        # The server has no simulation clock; the tracer's "sim time" axis
        # carries wall seconds since service start instead.
        self.tracer = Tracer(
            clock=lambda: time.perf_counter() - origin, max_events=TRACE_RING, keep_latest=True
        )
        self._stop_eviction = threading.Event()
        self._eviction_thread: Optional[threading.Thread] = None
        register_probe("service", self._probe)
        if self.config.idle_timeout is not None:
            self._eviction_thread = threading.Thread(
                target=self._eviction_loop, name="repro-service-evict", daemon=True
            )
            self._eviction_thread.start()
        # Durability: replay first (through the ordinary dispatcher, with
        # journaling suppressed), then open the journal for appending — a
        # resumed server continues the very log it was rebuilt from.
        self.journal: Optional[RequestJournal] = None
        self._replaying = False
        if self.config.persist_dir is not None:
            self.journal = RequestJournal(self.config.persist_dir)
            if self.config.resume:
                self._replaying = True
                try:
                    self.journal.replay(self.dispatch)
                finally:
                    self._replaying = False
            self.journal.open()

    # -- observability -------------------------------------------------------------

    def _probe(self) -> Dict[str, Any]:
        """Service request/session counters (requests, errors, open sessions,
        per-method totals, trace events dropped by the ring)."""
        with self._sessions_lock:
            open_sessions = len(self._sessions)
        with self._trace_lock:
            return self.stats.as_dict(open_sessions, self.tracer.dropped_events)

    def _trace(self, kind: str, **fields: Any) -> None:
        # Tracer.event is a plain append; the server records from many
        # threads, so serialize (trials never needed this — one thread).
        with self._trace_lock:
            self.tracer.event(kind, **fields)

    def _record_request(self, method: str, started: float, error: Optional[ServiceError] = None) -> None:
        """Close one request's books: the per-method counters (exact — under
        the trace lock) and its ``rpc.request`` / ``rpc.error`` event."""
        duration_ms = (time.perf_counter() - started) * 1000.0
        with self._trace_lock:
            # Unknown names share one row: hostile input must not grow the table.
            totals = self.stats.methods.setdefault(
                method if method in VERBS else "(unknown)", [0, 0, 0.0]
            )
            totals[0] += 1
            totals[2] += duration_ms
            if error is None:
                self.tracer.event("rpc.request", method=method, duration_ms=duration_ms)
            else:
                totals[1] += 1
                self.tracer.event(
                    "rpc.error",
                    method=method,
                    error_kind=error.kind,
                    message=str(error),
                    duration_ms=duration_ms,
                )

    def _session(self, session_id: str) -> ServiceSession:
        with self._sessions_lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise SessionNotFoundError(f"no session {session_id!r} (closed or evicted?)")
        return session

    # -- dispatch ------------------------------------------------------------------

    def dispatch(self, method: str, params: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Execute one request; raises :class:`ServiceError` subclasses.

        The verb's declaration refuses bad ``params`` before any session
        lock is taken, so a refused request never waits behind a busy
        session; the handler gets typed keyword arguments."""
        started = time.perf_counter()
        self.stats.requests += 1
        self.stats.in_flight += 1
        try:
            if self.closed.is_set() and method != "service.status":
                raise ServerShutdownError("service is shutting down")
            verb = VERBS.get(method)
            if verb is None:
                raise MethodNotFoundError(f"unknown method {method!r}; known: {sorted(VERBS)}")
            kwargs = verb.arguments(params)
            if verb.session:
                session = self._session(kwargs.pop("session"))
                if verb.check is not None:
                    verb.check(session, kwargs)
                with session.lock:
                    session.touch()
                    result = getattr(session, verb.handler)(**kwargs)
            else:
                result = getattr(self, verb.handler)(**kwargs)
            if self.journal is not None and not self._replaying:
                self.journal.record(method, params)
        except ServiceError as error:
            self.stats.errors += 1
            self._record_request(method, started, error)
            raise
        except Exception as error:
            self.stats.errors += 1
            wrapped = ExecutionError(f"internal error in {method}: {error}")
            self._record_request(method, started, wrapped)
            raise wrapped from error
        finally:
            self.stats.in_flight -= 1
        self._record_request(method, started)
        return result

    # -- control plane -------------------------------------------------------------

    def _rpc_ping(self) -> Dict[str, Any]:
        return {"ok": True, "service": "repro", "sessions": len(self._sessions)}

    def _rpc_shutdown(self) -> Dict[str, Any]:
        return {"stopping": True}  # the transport stops the server once this ack is out

    def _rpc_registry_list(self) -> Dict[str, Any]:
        return registry_catalog()

    def _rpc_probes(self) -> Dict[str, Any]:
        return {"probes": probe_snapshot()}

    def _rpc_status(self) -> Dict[str, Any]:
        status: Dict[str, Any] = {
            "stats": self._probe(),
            "closing": self.closed.is_set(),
            "config": {
                "workers": self.config.workers,
                "idle_timeout": self.config.idle_timeout,
                "retention_default": self.config.retention_default,
                "max_sessions": self.config.max_sessions,
            },
            **self._rpc_session_list(),
        }
        if self.journal is not None:
            status["config"]["persist_dir"] = str(self.config.persist_dir)
            status["journal"] = self.journal.counters()
        return status

    # -- session lifecycle ---------------------------------------------------------

    def _rpc_session_create(self, request: Dict[str, Any]) -> Dict[str, Any]:
        spec = build_session_spec(request, retention_default=self.config.retention_default)
        with self._sessions_lock:
            if len(self._sessions) >= self.config.max_sessions:
                raise TooManySessionsError(
                    f"server is at its {self.config.max_sessions}-session capacity; "
                    "close or wait for idle eviction"
                )
            digest = spec_digest(spec)
            ordinal = self._digest_ordinals.get(digest, 0)
            self._digest_ordinals[digest] = ordinal + 1
            session = ServiceSession(session_id_for(digest, ordinal), spec, digest)
            self._sessions[session.session_id] = session
            self.stats.sessions_created += 1
        self._trace(
            "session.create",
            session=session.session_id,
            seed=spec.seed,
            workload=spec.workload,
            scenario=spec.scenario_name,
        )
        return {
            "session": session.session_id,
            "seed": spec.seed,
            "spec_digest": digest,
            "retention": spec.retention,
            "spec": spec.describe(),
        }

    def _rpc_session_list(self) -> Dict[str, Any]:
        with self._sessions_lock:
            sessions = list(self._sessions.values())
        return {
            "sessions": [
                {
                    "session": session.session_id,
                    "state": session.state,
                    "idle_seconds": session.idle_seconds,
                    "requests_served": session.requests_served,
                }
                for session in sessions
            ]
        }

    def _rpc_session_close(self, session: str) -> Dict[str, Any]:
        closing = self._session(session)
        with closing.lock:
            closing.close()
        with self._sessions_lock:
            self._sessions.pop(session, None)
        self.stats.sessions_closed += 1
        self._trace("session.close", session=session)
        return {"session": session, "state": closing.state}

    # -- eviction ------------------------------------------------------------------

    def _eviction_loop(self) -> None:
        timeout = self.config.idle_timeout
        interval = max(min(timeout / 4.0, 5.0), 0.02)
        while not self._stop_eviction.wait(interval):
            self.evict_idle_sessions()

    def evict_idle_sessions(self) -> List[str]:
        """Close and drop sessions idle past the configured timeout.  A
        session whose lock is held (a request is mid-flight) is by
        definition not idle and is skipped without blocking."""
        timeout = self.config.idle_timeout
        if timeout is None:
            return []
        with self._sessions_lock:
            candidates = [
                session
                for session in self._sessions.values()
                if session.idle_seconds > timeout
            ]
        evicted: List[str] = []
        for session in candidates:
            if not session.lock.acquire(blocking=False):
                continue
            try:
                if session.idle_seconds > timeout:
                    session.close()
                    evicted.append(session.session_id)
            finally:
                session.lock.release()
        if evicted:
            with self._sessions_lock:
                for session_id in evicted:
                    self._sessions.pop(session_id, None)
            self.stats.sessions_evicted += len(evicted)
            for session_id in evicted:
                self._trace("session.evict", session=session_id)
        return evicted

    # -- teardown ------------------------------------------------------------------

    def close(self) -> None:
        """Refuse new work, interrupt in-flight sessions, release resources.

        Idempotence is tracked by its own flag, not ``self.closed``: the
        transport layer sets ``closed`` early (to fail requests fast) and
        still relies on this method to do the actual teardown afterwards.
        """
        self.closed.set()
        self._stop_eviction.set()
        with self._teardown_lock:
            if self._teardown_done:
                return
            self._teardown_done = True
        with self._sessions_lock:
            sessions = list(self._sessions.values())
        # Signal first (in-flight advance loops abort at their next step),
        # then close each session under a bounded lock wait.
        for session in sessions:
            session.closed.set()
        for session in sessions:
            if session.lock.acquire(timeout=5.0):
                try:
                    session.state = "closed"
                finally:
                    session.lock.release()
        with self._sessions_lock:
            self._sessions.clear()
        if self._eviction_thread is not None:
            self._eviction_thread.join(timeout=2.0)
        self.write_artifacts()
        if self.journal is not None:
            self.journal.close()
        unregister_probe("service")

    def write_artifacts(self) -> Dict[str, Path]:
        """Write the request-lifecycle trace and a final probe snapshot to
        ``config.trace_dir`` (no-op when unset)."""
        if self.config.trace_dir is None:
            return {}
        target = Path(self.config.trace_dir)
        target.mkdir(parents=True, exist_ok=True)
        with self._trace_lock:
            paths = self.tracer.write(target, "service")
        probes_path = target / "service_probes.json"
        probes_path.write_text(
            json.dumps(probe_snapshot(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        paths["probes"] = probes_path
        return paths


# -- HTTP transport ------------------------------------------------------------------


class _RequestHandler(socketserver.StreamRequestHandler):
    """One connection: JSON-RPC 2.0 requests (``POST``) and ``GET /healthz``
    for liveness, answered in order until either side closes."""

    # Connections persist, so small writes must not wait on Nagle's algorithm
    # for the peer's delayed ACK (a 40 ms stall per response).
    disable_nagle_algorithm = True
    timeout = 30.0
    """Idle-read timeout: a keep-alive connection silent this long is closed,
    so an abandoned client cannot pin its thread.  (Socket reads and writes
    only — a long ``session.run`` is not on the socket while it computes.)"""

    def handle(self) -> None:
        self.close_connection = False
        while not self.close_connection:
            self.close_connection = True  # unless a whole request proves otherwise
            try:
                head = read_head(self.rfile)
                if head is None:
                    return
                (verb, path, version), headers = head
                if not version.startswith("HTTP/1."):
                    raise ProtocolError(400, f"unsupported protocol version {version!r}")
                if version != "HTTP/1.0" and headers.get("expect", "").lower() == "100-continue":
                    self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
                body = read_body(self.rfile, headers)
            except ProtocolError as error:
                self._respond(error.status, _error_envelope(RPC_INVALID_REQUEST, str(error)))
                return
            except OSError:  # idle timeout, reset: nobody left to answer
                return
            connection = headers.get("connection", "").lower()
            self.close_connection = connection == "close" or (
                version == "HTTP/1.0" and connection != "keep-alive"
            )
            if verb == "POST":
                self._rpc(body)
            elif verb == "GET" and path == "/healthz":
                self._respond(200, {"ok": not self.server.rpc_server.service.closed.is_set()})  # type: ignore[attr-defined]
            else:
                self._respond(404, {"ok": False, "error": "unknown path (POST JSON-RPC to /rpc)"})

    def _respond(self, status: int, body: Dict[str, Any]) -> None:
        payload = json.dumps(body, sort_keys=True).encode("utf-8")
        if status != 200 or self.server.rpc_server.service.closed.is_set():  # type: ignore[attr-defined]
            self.close_connection = True
        extra = "Server: repro-service\r\n" + ("Connection: close\r\n" if self.close_connection else "")
        try:
            # Header and body in ONE write: one segment, one client wake-up.
            self.wfile.write(frame(f"HTTP/1.1 {status} {HTTPStatus(status).phrase}", payload, extra))
        except OSError:  # client went away (reset, broken pipe, timed out)
            self.close_connection = True

    def _rpc(self, raw: bytes) -> None:
        rpc_server: "ServiceServer" = self.server.rpc_server  # type: ignore[attr-defined]
        try:
            envelope = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self._respond(200, _error_envelope(RPC_PARSE_ERROR, "request body is not valid JSON"))
            return
        if not isinstance(envelope, dict) or not isinstance(envelope.get("method"), str):
            self._respond(200, _error_envelope(RPC_INVALID_REQUEST, "expected a single JSON-RPC request object"))
            return
        method = envelope["method"]
        try:
            answer = {"result": rpc_server.execute(method, envelope.get("params"))}
        except ServiceError as error:
            answer = {"error": error.to_rpc_error()}
        except Exception as error:  # transport-layer surprise: still answer
            answer = {"error": ExecutionError(f"internal error: {error}").to_rpc_error()}
        self._respond(200, {"jsonrpc": "2.0", "id": envelope.get("id"), **answer})
        if method == "service.shutdown" and "result" in answer:
            # The envelope is already on the wire; stop the server from a
            # helper thread (shutdown() would deadlock from a handler).
            threading.Thread(target=rpc_server.shutdown, daemon=True).start()


def _error_envelope(code: int, message: str) -> Dict[str, Any]:
    """The answer to a request that never yielded an id to echo."""
    return {
        "jsonrpc": "2.0",
        "id": None,
        "error": {"code": code, "message": message, "data": {"kind": "invalid_request"}},
    }


class _HTTPServer(socketserver.ThreadingTCPServer):
    """One daemon thread per accepted connection, each one tracked so
    shutdown can end the idle ones instead of leaving them parked in a read."""

    allow_reuse_address = True

    def __init__(self, address: Any, rpc_server: "ServiceServer") -> None:
        super().__init__(address, _RequestHandler)
        self.rpc_server = rpc_server
        self._open: Dict[socket.socket, threading.Thread] = {}
        self._open_lock = threading.Lock()

    def process_request(self, request: socket.socket, client_address: Any) -> None:
        # Registered here, on the accept thread, so that once serve_forever
        # has returned the table holds every connection ever accepted.
        thread = threading.Thread(
            target=self.process_request_thread, args=(request, client_address), daemon=True
        )
        with self._open_lock:
            self._open[request] = thread
        self.rpc_server.service.stats.connections_accepted += 1
        thread.start()

    def shutdown_request(self, request: socket.socket) -> None:
        super().shutdown_request(request)
        with self._open_lock:
            self._open.pop(request, None)

    def close_connections(self, timeout: float) -> None:
        """End every open connection's read side and wait for its thread.  A
        handler parked between requests sees EOF and exits; one mid-request
        can still write its (typed-error) answer, then exits the same way."""
        with self._open_lock:
            open_now = list(self._open.items())
        for request, _thread in open_now:
            try:
                request.shutdown(socket.SHUT_RD)
            except OSError:  # already closed by its own handler
                pass
        deadline = time.monotonic() + timeout
        for _request, thread in open_now:
            thread.join(max(deadline - time.monotonic(), 0.0))


class ServiceServer:
    """The long-running server: HTTP front, engine slots, one SimulatorService."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.service = SimulatorService(self.config)
        self.httpd = _HTTPServer((self.config.host, self.config.port), self)
        self.host, self.port = self.httpd.server_address[:2]
        self._serve_thread: Optional[threading.Thread] = None
        self._stopped = threading.Event()
        self._shutdown_lock = threading.Lock()
        workers = max(self.config.workers, 1)
        queue_slots = (
            2 * workers if self.config.max_queue is None else max(self.config.max_queue, 0)
        )
        self._engine_slots = threading.BoundedSemaphore(workers)
        self._admission_limit = workers + queue_slots
        self._pending = 0
        self._pending_lock = threading.Lock()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- request execution ---------------------------------------------------------

    def execute(self, method: str, params: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        """Run one request inline on the calling (connection) thread.

        Control-plane methods run at once.  Session methods pass bounded
        admission first: once ``workers + max_queue`` are already pending,
        the request is refused immediately with a typed ``server_overloaded``
        (and a ``retry_after`` hint sized to the backlog) instead of parking
        behind an unbounded queue.  An admitted request then takes one of the
        ``workers`` engine slots; one still waiting when the server closes
        fails with the same typed ``server_shutdown`` as a refused one (and
        one that gets its slot after the close is refused by ``dispatch``).
        """
        verb = VERBS.get(method)
        if verb is not None and verb.control:
            return self.service.dispatch(method, params)
        closed = self.service.closed
        if closed.is_set():
            raise ServerShutdownError("service is shutting down")
        with self._pending_lock:
            if self._pending >= self._admission_limit:
                backlog = self._pending - max(self.config.workers, 1) + 1
                retry_after = round(min(1.0, 0.05 * max(backlog, 1)), 3)
                self.service.stats.rejected_overload += 1
                self.service._trace(
                    "rpc.error",
                    method=method,
                    error_kind="server_overloaded",
                    message=f"{self._pending} requests pending",
                    duration_ms=0.0,
                )
                raise ServerOverloadedError(
                    f"server overloaded: {self._pending} session requests pending "
                    f"(limit {self._admission_limit}); retry after {retry_after}s",
                    retry_after=retry_after,
                )
            self._pending += 1
        try:
            # Timed acquire: a waiter must notice shutdown even when the slot
            # holder (a long session.run) never lets go.
            while not self._engine_slots.acquire(timeout=0.05):
                if closed.is_set():
                    raise ServerShutdownError(
                        "request cancelled: the server shut down before it ran"
                    )
            try:
                return self.service.dispatch(method, params)
            finally:
                self._engine_slots.release()
        finally:
            with self._pending_lock:
                self._pending -= 1

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> "ServiceServer":
        """Serve in a background thread (returns immediately)."""
        if self._serve_thread is None:
            self._serve_thread = threading.Thread(
                target=self.httpd.serve_forever,
                kwargs={"poll_interval": 0.1},
                name="repro-service-http",
                daemon=True,
            )
            self._serve_thread.start()
        return self

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until :meth:`shutdown` completes (CLI foreground mode)."""
        return self._stopped.wait(timeout)

    def shutdown(self) -> None:
        """Graceful, idempotent stop: fail waiting/in-flight work closed,
        stop accepting, close the connections, write artifacts.  Not callable
        from a connection's own thread (it joins them)."""
        with self._shutdown_lock:
            if self._stopped.is_set():
                return
            # Order matters.  Mark closed first: new requests are refused,
            # slot waiters and in-flight advance loops abort, and every
            # answer from here on carries ``Connection: close`` — all with
            # the same typed server_shutdown error.  Then stop accepting, so
            # the connection table is complete before it is swept; only then
            # end the connections' read sides (never their write sides: the
            # typed answers above must still get out).
            self.service.closed.set()
            with self.service._sessions_lock:
                for session in self.service._sessions.values():
                    session.closed.set()
            self.httpd.shutdown()
            if self._serve_thread is not None:
                self._serve_thread.join(timeout=5.0)
            self.httpd.server_close()
            self.httpd.close_connections(timeout=5.0)
            self.service.close()
            self._stopped.set()

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()
