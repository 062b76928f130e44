"""The simulator-as-a-service facade: JSON-RPC 2.0 over hand-framed HTTP/1.1.

Two layers, deliberately separable:

* :class:`SimulatorService` — the transport-independent dispatcher.  It owns
  the session table, the one :class:`EngineTurn`, the request counters
  behind the ``service`` probe, and a wall-clock
  :class:`~repro.obs.tracer.Tracer` of request-lifecycle events
  (``rpc.request``/``rpc.error``/``session.*``).  Unit tests drive
  :meth:`SimulatorService.dispatch` directly.
* :class:`ServiceServer` — a ``socketserver.ThreadingTCPServer`` with
  keep-alive connections, one thread per *connection*, which reads each
  request with the :mod:`~repro.service.http11` codec, runs it inline and
  answers in one write; what the codec refuses gets a typed error and
  ``Connection: close`` before any body byte is read.

Every verb but the ``control`` ones (``service.*``, ``registry.list``,
``obs.probes``) runs holding the engine turn, so exactly one request
touches engine state or the session table at a time: the engine is pure
Python, and under the interpreter lock a second one running at once would
buy no parallelism.  ``control`` verbs read a snapshot of the table, so a
busy server still answers pings and can always be shut down.

The fail-closed contract on shutdown: new requests and requests waiting
for the turn fail with ``server_shutdown``, in-flight ``session.advance``
loops abort at the next block-interval step, and idle keep-alive
connections are closed — a typed error envelope or EOF, never a hang.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from http import HTTPStatus
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional

from ..api.checkpoint import spec_digest
from ..api.spec import SimulationSpec
from ..obs import runtime as obs_runtime
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

__all__ = ["EngineTurn", "ServiceConfig", "ServiceStats", "SimulatorService", "ServiceServer"]

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
    """Admission: at most ``3 * workers`` requests hold or wait for the engine
    turn; one more gets ``server_overloaded`` with a ``retry_after`` hint."""
    idle_timeout: Optional[float] = 300.0
    """Close sessions idle longer than this many wall seconds (None: never),
    checked after each request that holds the engine turn."""
    retention_default: Optional[int] = 64
    """Retention applied to sessions whose spec asks for none, so a
    long-lived server inherits the bounded-memory contract by default.
    ``None`` leaves unbounded history to sessions that want it."""
    max_sessions: int = 64
    trace_dir: Optional[str] = None
    """Where shutdown writes the request-lifecycle trace + probe snapshot."""
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


class EngineTurn:
    """The one turn at the engine, handed out first come, first served.

    ``with turn:`` waits for the turn (a condition wait, never a poll) and
    gives it back.  The queue is the admission bound: a request that finds
    ``limit`` requests holding or waiting is refused at once with
    ``server_overloaded``.  :meth:`close` fails every waiter, and every
    later taker, with ``server_shutdown``.
    """

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.closed = False
        self._owner: Optional[int] = None  # the holding thread's ident
        self._waiting: Deque[int] = deque()  # waiting threads' idents, first come first
        self._changed = threading.Condition()

    def __enter__(self) -> "EngineTurn":
        with self._changed:
            queued = len(self._waiting) + (self._owner is not None)
            if queued >= self.limit:
                retry_after = round(min(1.0, 0.05 * (len(self._waiting) + 1)), 3)
                raise ServerOverloadedError(
                    f"server overloaded: {queued} session requests hold or wait for the "
                    f"engine turn (limit {self.limit}); retry after {retry_after}s",
                    retry_after=retry_after,
                )
            self._queue()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        with self._changed:
            # A holder whose pass_on failed at shutdown no longer holds it.
            if self._owner == threading.get_ident():
                self._owner = None
                self._changed.notify_all()

    def _queue(self) -> None:
        """Wait in line, then take the turn (the condition is held)."""
        me = threading.get_ident()
        self._waiting.append(me)
        try:
            while self.closed or self._owner is not None or self._waiting[0] != me:
                if self.closed:
                    raise ServerShutdownError("service is shutting down")
                self._changed.wait()
        finally:
            self._waiting.remove(me)
        self._owner = me

    def pass_on(self) -> None:
        """Let every request already waiting go first, then take the turn
        back, so a long ``session.advance`` cannot starve other sessions;
        the holder's ``repro.obs`` tracer is swapped out meanwhile.  Once
        closed, the holder gives the turn up and fails."""
        if not self._waiting and not self.closed:  # unlocked: a late waiter goes next step
            return
        tracer = obs_runtime.TRACER
        obs_runtime.deactivate()
        with self._changed:
            self._owner = None
            self._changed.notify_all()
            self._queue()
        if tracer is not None:
            obs_runtime.activate(tracer)

    def close(self, wait: float = 0.0) -> None:
        """Fail every waiter and later taker; then wait up to ``wait``
        seconds for the holder to give the turn back."""
        with self._changed:
            self.closed = True
            self._changed.notify_all()
            self._changed.wait_for(lambda: self._owner is None, wait)


class SimulatorService:
    """The dispatcher: session table + engine turn + verb routing + observability."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.stats = ServiceStats()
        self.closed = threading.Event()
        self.turn = EngineTurn(3 * max(self.config.workers, 1))
        self._sessions: Dict[str, ServiceSession] = {}
        """Mutated only by the turn's holder; control verbs read snapshots."""
        self._digest_ordinals: Dict[str, int] = {}
        self._books = threading.Lock()
        """Guards what control verbs and turn holders both write: the
        per-method counters, the trace ring, and the teardown flag."""
        self._torn_down = False
        origin = time.perf_counter()
        # The server has no simulation clock; the tracer's "sim time" axis
        # carries wall seconds since service start instead.
        self.tracer = Tracer(
            clock=lambda: time.perf_counter() - origin, max_events=TRACE_RING, keep_latest=True
        )
        register_probe("service", self._probe)
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
        with self._books:
            return self.stats.as_dict(len(self._sessions), self.tracer.dropped_events)

    def _trace(self, kind: str, **fields: Any) -> None:
        # Tracer.event is a plain append; control verbs record from their
        # own threads, so serialize (trials never needed this — one thread).
        with self._books:
            self.tracer.event(kind, **fields)

    def _record_request(self, method: str, started: float, error: Optional[ServiceError] = None) -> None:
        """Close one request's books: the per-method counters (exact — under
        the books lock) and its ``rpc.request`` / ``rpc.error`` event."""
        duration_ms = (time.perf_counter() - started) * 1000.0
        with self._books:
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
                self.stats.errors += 1
                self.stats.rejected_overload += isinstance(error, ServerOverloadedError)
                self.tracer.event(
                    "rpc.error",
                    method=method,
                    error_kind=error.kind,
                    message=str(error),
                    duration_ms=duration_ms,
                )

    def _session(self, session_id: str) -> ServiceSession:
        session = self._sessions.get(session_id)
        if session is None:
            raise SessionNotFoundError(f"no session {session_id!r} (closed or evicted?)")
        return session

    # -- dispatch ------------------------------------------------------------------

    def dispatch(self, method: str, params: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Execute one request; raises :class:`ServiceError` subclasses.

        The verb's declaration refuses bad ``params`` before the engine turn
        is taken, so a refused request never waits behind a busy engine;
        the handler gets typed keyword arguments.  Every verb but the
        ``control`` ones then runs, and is journaled, holding the turn."""
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
            if verb.spec_request:
                kwargs = {"spec": build_session_spec(kwargs["request"], self.config.retention_default)}
            if verb.control:
                result = getattr(self, verb.handler)(**kwargs)
            else:
                session = self._session(kwargs.pop("session")) if verb.session else None
                if verb.check is not None:
                    verb.check(session, kwargs)
                with self.turn:
                    if session is None:
                        result = getattr(self, verb.handler)(**kwargs)
                    else:  # waits out the session's own advance, if any
                        result = session.serve(verb.handler, kwargs)
                    if self.journal is not None and not self._replaying:
                        self.journal.record(method, params)
                    self.evict_idle_sessions()
        except ServiceError as error:
            self._record_request(method, started, error)
            raise
        except Exception as error:
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
                "admission_limit": self.turn.limit,
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

    def _rpc_session_create(self, spec: SimulationSpec) -> Dict[str, Any]:
        if len(self._sessions) >= self.config.max_sessions:
            raise TooManySessionsError(
                f"server is at its {self.config.max_sessions}-session capacity; "
                "close or wait for idle eviction"
            )
        digest = spec_digest(spec)
        ordinal = self._digest_ordinals.get(digest, 0)
        self._digest_ordinals[digest] = ordinal + 1
        session = ServiceSession(session_id_for(digest, ordinal), spec, digest, self.turn.pass_on)
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
        return {
            "sessions": [
                {
                    "session": session.session_id,
                    "state": session.state,
                    "idle_seconds": session.idle_seconds,
                    "requests_served": session.requests_served,
                }
                for session in list(self._sessions.values())
            ]
        }

    def _rpc_session_close(self, session: str) -> Dict[str, Any]:
        self._session(session).settle()
        closing = self._session(session)  # another close may have run meanwhile
        closing.close()
        del self._sessions[session]
        self.stats.sessions_closed += 1
        self._trace("session.close", session=session)
        return {"session": session, "state": closing.state}

    # -- eviction ------------------------------------------------------------------

    def evict_idle_sessions(self) -> List[str]:
        """Close and drop sessions idle past the configured timeout.  The
        dispatcher sweeps after each turn-holding request, so a session is
        never evicted mid-request."""
        timeout = self.config.idle_timeout
        if timeout is None:
            return []
        evicted = [key for key, session in self._sessions.items() if session.idle_seconds > timeout]
        for session_id in evicted:
            self._sessions.pop(session_id).close()
            self.stats.sessions_evicted += 1
            self._trace("session.evict", session=session_id)
        return evicted

    # -- teardown ------------------------------------------------------------------

    def begin_shutdown(self) -> None:
        """Refuse new work and fail waiting work closed: requests waiting for
        the turn get ``server_shutdown`` now, and an in-flight advance stops
        at its next block-interval step.  Idempotent."""
        self.closed.set()
        self.turn.close()

    def close(self) -> None:
        """Refuse new work, interrupt in-flight sessions, release resources.

        Idempotent.  The transport calls :meth:`begin_shutdown` early (to
        fail requests fast) and this method for the teardown afterwards."""
        self.begin_shutdown()
        with self._books:
            if self._torn_down:
                return
            self._torn_down = True
        self.turn.close(wait=5.0)
        for session in list(self._sessions.values()):
            session.close()
        self._sessions.clear()
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
        with self._books:
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
    """The long-running server: the HTTP front of one SimulatorService."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.service = SimulatorService(self.config)
        self.httpd = _HTTPServer((self.config.host, self.config.port), self)
        self.host, self.port = self.httpd.server_address[:2]
        self._serve_thread: Optional[threading.Thread] = None
        self._stopped = threading.Event()
        self._shutdown_lock = threading.Lock()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- request execution ---------------------------------------------------------

    def execute(self, method: str, params: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        """Run one request inline on the calling (connection) thread; the
        dispatcher admits it to, and runs it holding, the engine turn.  (The
        transport's one entry point into the service: the bench's traced
        pass times it as the server span.)"""
        return self.service.dispatch(method, params)

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
            # turn waiters and in-flight advance loops abort, and every
            # answer from here on carries ``Connection: close`` — all with
            # the same typed server_shutdown error.  Then stop accepting, so
            # the connection table is complete before it is swept; only then
            # end the connections' read sides (never their write sides: the
            # typed answers above must still get out).
            self.service.begin_shutdown()
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
