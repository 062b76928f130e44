"""The service's typed error taxonomy, shared by server and client.

Every failure a caller can see has a stable string ``kind`` (the contract
tests and the load generator key on) and a JSON-RPC integer code (what goes
on the wire).  The split matters for the fail-closed story: a session that
dies mid-request must surface as a *typed* error a client can match on —
``server_shutdown``, ``session_closed`` — never as a hang or a bare 500.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

__all__ = [
    "ServiceError",
    "MethodNotFoundError",
    "InvalidParamsError",
    "SessionNotFoundError",
    "SessionClosedError",
    "ServerShutdownError",
    "TooManySessionsError",
    "ServerOverloadedError",
    "ExecutionError",
    "ServiceClientError",
    "ServiceConnectionError",
    "ServiceRPCError",
    "RPC_PARSE_ERROR",
    "RPC_INVALID_REQUEST",
    "RPC_METHOD_NOT_FOUND",
    "RPC_INVALID_PARAMS",
]

# JSON-RPC 2.0 pre-defined codes.
RPC_PARSE_ERROR = -32700
RPC_INVALID_REQUEST = -32600
RPC_METHOD_NOT_FOUND = -32601
RPC_INVALID_PARAMS = -32602

# Implementation-defined server-error range (-32000..-32099).
_RPC_SESSION_NOT_FOUND = -32001
_RPC_SESSION_CLOSED = -32002
_RPC_SERVER_SHUTDOWN = -32003
_RPC_TOO_MANY_SESSIONS = -32004
_RPC_EXECUTION_ERROR = -32005
_RPC_SERVER_OVERLOADED = -32006


class ServiceError(Exception):
    """Base of every error the dispatcher deliberately raises.

    ``kind`` is the stable machine-readable discriminator carried in the
    JSON-RPC error's ``data`` object; ``rpc_code`` is the integer code.
    """

    kind = "service_error"
    rpc_code = _RPC_EXECUTION_ERROR

    def __init__(self, message: str, data: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(message)
        self.data = dict(data or {})

    def to_rpc_error(self) -> Dict[str, Any]:
        """The JSON-RPC 2.0 ``error`` member for this failure."""
        payload = dict(self.data)
        payload["kind"] = self.kind
        return {"code": self.rpc_code, "message": str(self), "data": payload}


class MethodNotFoundError(ServiceError):
    kind = "method_not_found"
    rpc_code = RPC_METHOD_NOT_FOUND


class InvalidParamsError(ServiceError):
    kind = "invalid_params"
    rpc_code = RPC_INVALID_PARAMS


class SessionNotFoundError(ServiceError):
    kind = "session_not_found"
    rpc_code = _RPC_SESSION_NOT_FOUND


class SessionClosedError(ServiceError):
    """The session was closed (explicitly or by idle eviction)."""

    kind = "session_closed"
    rpc_code = _RPC_SESSION_CLOSED


class ServerShutdownError(ServiceError):
    """The server is stopping: in-flight work fails closed with this kind."""

    kind = "server_shutdown"
    rpc_code = _RPC_SERVER_SHUTDOWN


class TooManySessionsError(ServiceError):
    kind = "too_many_sessions"
    rpc_code = _RPC_TOO_MANY_SESSIONS


class ServerOverloadedError(ServiceError):
    """The engine turn's bounded queue is full: the request is refused
    immediately (with a ``retry_after`` hint in ``data``) instead of
    queueing without bound behind it."""

    kind = "server_overloaded"
    rpc_code = _RPC_SERVER_OVERLOADED

    def __init__(
        self,
        message: str,
        retry_after: float = 0.1,
        data: Optional[Dict[str, Any]] = None,
    ) -> None:
        payload = dict(data or {})
        payload.setdefault("retry_after", retry_after)
        super().__init__(message, payload)
        self.retry_after = float(payload["retry_after"])


class ExecutionError(ServiceError):
    """An unexpected engine-side failure, wrapped so callers still get a
    typed envelope rather than a transport-level 500."""

    kind = "execution_error"
    rpc_code = _RPC_EXECUTION_ERROR


_KIND_TO_CLASS = {
    cls.kind: cls
    for cls in (
        MethodNotFoundError,
        InvalidParamsError,
        SessionNotFoundError,
        SessionClosedError,
        ServerShutdownError,
        TooManySessionsError,
        ServerOverloadedError,
        ExecutionError,
    )
}


def error_from_kind(kind: str, message: str) -> ServiceError:
    """Rebuild the matching typed error from a wire-level ``kind``."""
    return _KIND_TO_CLASS.get(kind, ServiceError)(message)


# -- client-side errors ---------------------------------------------------------------


class ServiceClientError(Exception):
    """Base of everything :class:`repro.service.client.ServiceClient` raises."""


class ServiceConnectionError(ServiceClientError):
    """The transport failed: refused, reset, or timed out.  A killed server
    surfaces as this (or as a :class:`ServiceRPCError` whose kind is
    ``server_shutdown`` when the error envelope still got out)."""


class ServiceRPCError(ServiceClientError):
    """The server answered with a JSON-RPC error envelope."""

    def __init__(self, code: int, message: str, data: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(message)
        self.code = code
        self.data = dict(data or {})

    @property
    def kind(self) -> str:
        """The server-side error taxonomy kind (``session_not_found``, ...)."""
        return str(self.data.get("kind", "service_error"))
