"""The service's client, in the shape e2e suites expect.

:func:`payload` builds one JSON-RPC envelope, in the idiom of
blockchain-simulator e2e harnesses.  :class:`ServiceClient` sends any verb
with ``request`` and names the ones the load generators drive.

Transport: every exchange goes through :func:`_roundtrip` on a
:class:`_Connection` — a plain ``TCP_NODELAY`` socket (TLS-wrapped for
``https://``, with ``ssl`` imported only then) speaking the
:mod:`~repro.service.http11` codec: the request leaves as one ``sendall``,
the answer is one head plus ``Content-Length`` bytes off a buffered read
side.  :class:`ServiceClient` keeps one persistent connection per calling
thread and reuses it for every verb; before sending on a reused socket it
probes for readability with a zero timeout — readable before anything was
sent means the peer closed (or restarted) — and reconnects.  That reconnect
consumes no retry and is safe for every verb, ``tx.submit`` included,
because no byte of the request has left yet.  An answer that says
``Connection: close`` closes our side too, so the next request starts fresh.

Transport failures (refused, reset, timeout, a connection dropped mid-body,
a non-200 status, a non-JSON body, an answer whose ``id`` is not the
request's) raise :class:`~repro.service.errors.ServiceConnectionError` and
close the connection they poisoned; JSON-RPC error envelopes raise
:class:`~repro.service.errors.ServiceRPCError` carrying the server's typed
``kind`` — a killed server is always a typed exception here, never a hang
(every request carries a timeout).

Resilience: :class:`ServiceClient` retries the verbs
:mod:`~repro.service.verbs` declares ``idempotent`` (reads, the
summary-cached ``session.run``) and ``healthz`` on transport errors and on
typed ``server_overloaded`` rejections, with capped exponential backoff and
deterministic seeded jitter (same ``retry_seed`` → same schedule, so tests
and replayed load runs see identical timing decisions).  State-changing
verbs — ``tx.submit``, ``session.advance``, ``contract.deploy``, create /
close / shutdown — and unknown methods are never retried: a lost response
does not prove the request was lost, and a blind resend could double-apply
it.
"""

from __future__ import annotations

import json
import random
import select
import socket
import threading
import time
from itertools import count
from typing import Any, Callable, Dict, List, Optional
from urllib.parse import urlsplit

from .errors import ServiceConnectionError, ServiceRPCError
from .http11 import frame, read_body, read_head
from .verbs import VERBS

__all__ = ["payload", "ServiceClient"]

_request_ids = count(1)


def payload(method: str, params: Optional[Dict[str, Any]] = None, request_id: Optional[int] = None) -> Dict[str, Any]:
    """A JSON-RPC 2.0 request object for ``method``."""
    return {
        "jsonrpc": "2.0",
        "method": method,
        "params": params or {},
        "id": next(_request_ids) if request_id is None else request_id,
    }


class _Connection:
    """One socket to ``url``'s host and its buffered read side; unopened
    until the first request, reusable after :meth:`close`."""

    def __init__(self, url: str, timeout: float) -> None:
        parts = urlsplit(url)
        self.secure = parts.scheme == "https"
        self.origin = f"{parts.scheme}://{parts.netloc}"
        self.host = parts.hostname or ""
        self.port = parts.port or (443 if self.secure else 80)
        self.host_header = f"Host: {parts.netloc}\r\n"
        self.timeout = timeout
        self.sock: Optional[socket.socket] = None
        self.stream: Any = None

    def connect(self) -> None:
        sock = socket.create_connection((self.host, self.port), self.timeout)
        # Requests are single small writes on a kept-alive socket: never let
        # Nagle's algorithm hold one back for the peer's delayed ACK.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if self.secure:
            import ssl

            sock = ssl.create_default_context().wrap_socket(sock, server_hostname=self.host)
        self.sock, self.stream = sock, sock.makefile("rb")

    def close(self) -> None:
        if self.sock is not None:
            self.stream.close()
            self.sock.close()
            self.sock = self.stream = None


def _roundtrip(connection: _Connection, verb: str, path: str, body: Optional[Dict[str, Any]] = None) -> Any:
    """One HTTP exchange on ``connection``; returns the parsed JSON answer.

    The one place transport failures become typed: refused / reset / timed
    out (``OSError``), dropped before or inside the answer, a broken frame
    (:class:`~repro.service.http11.ProtocolError`), a non-200 status, or a
    non-JSON body (all ``ValueError``).  Every failure closes the connection,
    whose stream position is no longer known.
    """
    data = b"" if body is None else json.dumps(body).encode("utf-8")
    try:
        if connection.sock is None:
            connection.connect()
        connection.sock.sendall(frame(f"{verb} {path or '/'} HTTP/1.1", data, connection.host_header))
        head = read_head(connection.stream)
        if head is None:
            raise ConnectionError("connection closed before the answer")
        (version, status, reason), headers = head
        raw = read_body(connection.stream, headers)
        if version != "HTTP/1.1" or headers.get("connection", "").lower() == "close":
            connection.close()
        if status != "200":
            raise ValueError(f"HTTP {status} {reason}")
        return json.loads(raw)
    except (OSError, ValueError) as error:
        connection.close()
        raise ServiceConnectionError(
            f"{verb} {connection.origin}{path} failed: {error!r}"
        ) from error


def _peer_closed(sock: Any) -> bool:
    """Readable before we sent anything: the peer closed this socket."""
    if hasattr(select, "poll"):  # no fd-number ceiling, unlike select() (fds >= 1024)
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])  # Windows: no poll, no such ceiling


class ServiceClient:
    """One server: :meth:`request` sends any verb; raises typed errors,
    returns results.

    ``retries`` bounds the *extra* attempts for idempotent verbs (so the
    worst case is ``retries + 1`` sends); backoff doubles from ``backoff``
    up to ``backoff_cap`` with deterministic jitter drawn from
    ``random.Random(retry_seed)``.  Non-idempotent verbs always get exactly
    one attempt regardless.

    One client may be shared across threads: each calling thread gets its
    own persistent connection.  The client owns all of them — :meth:`close`
    (or leaving the ``with`` block) closes every thread's socket.
    """

    def __init__(
        self,
        url: str,
        timeout: float = 60.0,
        retries: int = 2,
        backoff: float = 0.05,
        backoff_cap: float = 1.0,
        retry_seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if backoff <= 0.0 or backoff_cap < backoff:
            raise ValueError(
                f"need 0 < backoff <= backoff_cap, got {backoff} / {backoff_cap}"
            )
        self.url = url.rstrip("/")
        self._prefix = urlsplit(self.url).path
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self._jitter = random.Random(retry_seed)
        self._sleep = sleep
        self.retries_performed = 0
        self._connections: Dict[int, _Connection] = {}  # by thread ident

    # -- transport -----------------------------------------------------------------

    def _roundtrip(self, verb: str, path: str, body: Optional[Dict[str, Any]] = None) -> Any:
        """One exchange on the calling thread's persistent connection."""
        ident = threading.get_ident()
        connection = self._connections.get(ident)
        if connection is None:
            connection = self._connections[ident] = _Connection(self.url, self.timeout)
        elif connection.sock is not None and _peer_closed(connection.sock):
            # The server ended this keep-alive socket (idle timeout, restart).
            # Nothing has left yet, so reconnecting is safe for every verb
            # and costs no retry.
            connection.close()
        return _roundtrip(connection, verb, self._prefix + path, body)

    def close(self) -> None:
        """Close every thread's connection.  The client stays usable: the
        next request reconnects."""
        for connection in list(self._connections.values()):
            connection.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- retry plumbing ------------------------------------------------------------

    def _backoff_delay(self, attempt: int) -> float:
        """The pause before retry ``attempt`` (1-based): capped exponential
        with deterministic jitter in [0.5x, 1.5x)."""
        base = min(self.backoff_cap, self.backoff * (2 ** (attempt - 1)))
        return base * self._jitter.uniform(0.5, 1.5)

    def _with_retries(self, send: Callable[[], Dict[str, Any]], idempotent: bool) -> Dict[str, Any]:
        attempts = self.retries + 1 if idempotent else 1
        attempt = 0
        while True:
            try:
                return send()
            except ServiceConnectionError:
                attempt += 1
                if attempt >= attempts:
                    raise
                delay = self._backoff_delay(attempt)
            except ServiceRPCError as error:
                if error.kind != "server_overloaded":
                    raise
                attempt += 1
                if attempt >= attempts:
                    raise
                # Honor the server's backlog-sized hint when it is larger
                # than our own schedule would have waited.
                retry_after = float(error.data.get("retry_after", 0.0) or 0.0)
                delay = max(self._backoff_delay(attempt), retry_after)
            self.retries_performed += 1
            self._sleep(delay)

    def request(self, method: str, params: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        verb = VERBS.get(method)
        return self._with_retries(
            lambda: self._request_once(method, params),
            idempotent=verb is not None and verb.idempotent,
        )

    def _request_once(self, method: str, params: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        request = payload(method, params)
        envelope = self._roundtrip("POST", "/rpc", request)
        if not isinstance(envelope, dict) or envelope.get("id") != request["id"]:
            # Not the answer to this request: the stream is out of step, and
            # every later answer on it would be somebody else's too.
            self._connections[threading.get_ident()].close()
            raise ServiceConnectionError(
                f"{method}: answer does not carry request id {request['id']}: {envelope!r:.200}"
            )
        error = envelope.get("error")
        if error is not None:
            raise ServiceRPCError(
                int(error.get("code", 0)),
                str(error.get("message", "service error")),
                error.get("data"),
            )
        return envelope.get("result", {})

    # -- control plane -------------------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        """The liveness endpoint (``GET /healthz``); retried like any read."""

        return self._with_retries(lambda: dict(self._roundtrip("GET", "/healthz")), idempotent=True)

    def ping(self) -> Dict[str, Any]:
        return self.request("service.ping")

    def status(self) -> Dict[str, Any]:
        return self.request("service.status")

    def shutdown_server(self) -> Dict[str, Any]:
        return self.request("service.shutdown")

    # -- sessions ------------------------------------------------------------------

    def create_session(self, **spec: Any) -> str:
        """Create a session and return its id (``create_session_info`` for
        the full spec/seed/digest record)."""
        return str(self.create_session_info(**spec)["session"])

    def create_session_info(self, **spec: Any) -> Dict[str, Any]:
        return self.request("session.create", spec)

    def list_sessions(self) -> List[Dict[str, Any]]:
        return list(self.request("session.list")["sessions"])

    def session_status(self, session: str) -> Dict[str, Any]:
        return self.request("session.status", {"session": session})

    def advance(self, session: str, **how: Any) -> Dict[str, Any]:
        """Advance simulated time: ``seconds=``, ``to=``, or ``blocks=``."""
        return self.request("session.advance", {"session": session, **how})

    def run(self, session: str) -> Dict[str, Any]:
        """Run the session's measured loop to completion; returns the summary."""
        return self.request("session.run", {"session": session})

    def close_session(self, session: str) -> Dict[str, Any]:
        return self.request("session.close", {"session": session})

    # -- transactions ---------------------------------------------------------------

    def submit_transaction(
        self,
        session: str,
        account: str,
        to: str,
        data: str = "0x",
        value: int = 0,
        gas_limit: Optional[int] = None,
    ) -> Dict[str, Any]:
        params = {"session": session, "account": account, "to": to, "data": data, "value": value}
        return self.request("tx.submit", {**params, "gas_limit": gas_limit})

    def receipt(self, session: str, transaction_hash: str) -> Dict[str, Any]:
        return self.request(
            "tx.receipt", {"session": session, "transaction_hash": transaction_hash}
        )

    # -- queries -------------------------------------------------------------------

    def call_contract_method(
        self,
        session: str,
        contract: str,
        function: str,
        arguments: Optional[List[Any]] = None,
        account: Optional[str] = None,
        peer: Optional[str] = None,
        allow_raa: bool = True,
    ) -> Dict[str, Any]:
        """A view call; a ``None`` argument leaves that parameter to the server."""
        params = {"session": session, "contract": contract, "function": function, "arguments": arguments}
        return self.request("contract.call", {**params, "account": account, "peer": peer, "allow_raa": allow_raa})

    def hms_status(self, session: str, peer: Optional[str] = None) -> Dict[str, Any]:
        return self.request("hms.status", {"session": session, "peer": peer})
