"""repro.service — the simulator as a long-running JSON-RPC service.

Everything else in this repo runs a simulation as a batch: build, run,
summarize, exit.  This package keeps simulations *resident* — a
:class:`ServiceServer` multiplexes many concurrent sessions behind a
JSON-RPC-over-HTTP facade (stdlib only) at one engine turn, each session a
single-writer :class:`ServiceSession` with a deterministic seed, so a
replayed request log rebuilds byte-identical state.  :mod:`.verbs` declares
each RPC verb once (handler, typed params, control / idempotent / journaled
flags), and dispatch, admission, client retry and the request journal all
read that table.  :mod:`.client` is the
matching client, :mod:`.http11` the one HTTP/1.1 message codec both ends
frame with, :mod:`.loadgen` the closed/open-loop load generator that measures
the facade's tail latency, and :mod:`.catalog` the registry listing backing
``registry.list`` and ``repro list``.
"""

from .catalog import registry_catalog
from .client import ServiceClient, payload
from .errors import (
    ExecutionError,
    InvalidParamsError,
    MethodNotFoundError,
    ServerShutdownError,
    ServiceClientError,
    ServiceConnectionError,
    ServiceError,
    ServiceRPCError,
    SessionClosedError,
    SessionNotFoundError,
    TooManySessionsError,
)
from .loadgen import LoadgenConfig, format_report, run_loadgen, write_bench
from .server import ServiceConfig, ServiceServer, SimulatorService
from .session import ServiceSession, build_session_spec, derive_session_seed, session_id_for

__all__ = [
    "ServiceServer",
    "ServiceConfig",
    "SimulatorService",
    "ServiceSession",
    "ServiceClient",
    "LoadgenConfig",
    "run_loadgen",
    "write_bench",
    "format_report",
    "registry_catalog",
    "build_session_spec",
    "derive_session_seed",
    "session_id_for",
    "payload",
    "ServiceError",
    "MethodNotFoundError",
    "InvalidParamsError",
    "SessionNotFoundError",
    "SessionClosedError",
    "ServerShutdownError",
    "TooManySessionsError",
    "ExecutionError",
    "ServiceClientError",
    "ServiceConnectionError",
    "ServiceRPCError",
]
