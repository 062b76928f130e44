"""One served simulation: an evictable wrapper around SimulationHandle.

A :class:`ServiceSession` is the unit the RPC facade multiplexes: it owns a
fully wired :class:`~repro.api.engine.SimulationHandle`, a lazily built
:class:`~repro.clients.base.ContractClient` per account label, its own
tracer when the spec asks to ``observe``, and the idle-eviction
bookkeeping.  It takes no lock: the dispatcher calls it only while holding
the server's one engine turn, which a long advance passes on between steps.

Determinism is the point of the seeding scheme: a ``session.create`` request
that names no seed gets one *derived from the spec's content digest*
(:func:`derive_session_seed`), and session ids are ``<digest>-<ordinal>``.
Replaying the same request log against a fresh server therefore rebuilds
byte-identical sessions — same specs, same seeds, same ids — which is what
makes a recorded load-generator run reproducible.
"""

from __future__ import annotations

import math
import time
from dataclasses import fields, replace
from typing import Any, Callable, Dict, Optional, Sequence

from ..api.builder import check_plugins
from ..api.checkpoint import spec_digest
from ..api.engine import SimulationHandle, build_simulation
from ..api.experiment import EXPERIMENT_REGISTRY, ExperimentOptions
from ..api.registry import WORKLOAD_REGISTRY
from ..api.seeding import derive_seed
from ..api.spec import SimulationSpec, _flag, _text
from ..clients.base import ContractClient
from ..crypto.addresses import Address, address_from_label, contract_address
from ..encoding.hexutil import bytes32_from_int, to_hex
from ..obs import runtime as obs_runtime
from .errors import ExecutionError, InvalidParamsError, SessionClosedError

__all__ = [
    "ServiceSession",
    "build_session_spec",
    "derive_session_seed",
    "session_id_for",
]

VIEW_CALLER_LABEL = "service-viewer"
"""Caller label for view calls that name no account (view calls need an
address for ``msg.sender`` but no balance)."""

WIRE_ALIASES = {
    "params": "workload_params",
    "miners": "num_miners",
    "clients": "num_client_peers",
    "accounts": "extra_accounts",
}
"""Short ``session.create`` keys for spec fields, kept because existing
clients and recorded ``--persist`` journals send them."""

SERVED_TRACE_EVENTS = 100_000  # an observed session keeps this many events and spans (~40 MB)

DEFAULT_REQUEST = {"scenario": "semantic_mining", "workload": "market"}
"""What a ``session.create`` that names no experiment starts from."""

SESSION_REFUSALS = {
    spec_field.name: spec_field.metadata["refused"] for spec_field in fields(SimulationSpec)
}
"""Every spec field, mapped to why ``session.create`` refuses it (``None``
for the served ones) — read from the spec's own field declarations."""

SERVED_MAX = {
    spec_field.name: (spec_field.metadata["render"], spec_field.metadata["served_max"])
    for spec_field in fields(SimulationSpec)
    if spec_field.metadata["served_max"] is not None
}
"""The spec fields with a served-size ceiling: (renderer, ceiling)."""


def jsonable(value: Any) -> Any:
    """Render an engine value JSON-ready (bytes become ``0x…`` hex)."""
    if isinstance(value, bytes):
        return to_hex(value)
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


# -- spec construction -------------------------------------------------------------


def _experiment_spec(name: str, smoke: bool) -> SimulationSpec:
    if name not in EXPERIMENT_REGISTRY:
        raise InvalidParamsError(
            f"unknown experiment {name!r}; registered: {EXPERIMENT_REGISTRY.names()}"
        )
    base_spec = getattr(EXPERIMENT_REGISTRY.get(name), "base_spec", None)
    if base_spec is None:
        raise InvalidParamsError(
            f"experiment {name!r} does not expose a base spec; "
            "create the session from explicit spec fields instead"
        )
    return base_spec(ExperimentOptions(smoke=smoke))


def _requested_fields(request: Dict[str, Any]) -> Dict[str, Any]:
    """The request's spec fields by field name, wire aliases resolved;
    refused and unknown keys are :class:`InvalidParamsError`."""
    requested: Dict[str, Any] = {}
    unknown = []
    for key, value in request.items():
        name = WIRE_ALIASES.get(key, key)
        if name not in SESSION_REFUSALS:
            unknown.append(key)
        elif SESSION_REFUSALS[name] is not None:
            raise InvalidParamsError(
                f"{key!r} is not a session field: {SESSION_REFUSALS[name]}"
            )
        elif name in requested:
            raise InvalidParamsError(f"{key!r} names the field {name!r} twice")
        else:
            requested[name] = value
    if unknown:
        known = [name for name, refused in SESSION_REFUSALS.items() if refused is None]
        raise InvalidParamsError(
            f"unknown session fields {sorted(unknown)}; known: "
            f"{sorted(known + list(WIRE_ALIASES) + ['experiment', 'smoke'])}"
        )
    return requested


def _served_size(value: Any) -> Any:
    """How large a rendered value asks the server to build: a number's value,
    a list's length, the largest of a mapping's values (a topology's
    parameters)."""
    if isinstance(value, bool) or value is None:
        return 0
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, (list, tuple)):
        return len(value)
    if isinstance(value, dict):
        return max(map(_served_size, value.values()), default=0)
    return 0


def _check_served_sizes(spec: SimulationSpec) -> None:
    """Refuse a spec that would make the server allocate past a declared
    ``served_max``: a spec knob's, or a workload parameter's."""
    ceilings = []
    for name, (render, ceiling) in SERVED_MAX.items():
        value = getattr(spec, name)
        if value is not None and render is not None:
            value = render(value)
        ceilings.append((name, ceiling, value))
    if spec.workload in WORKLOAD_REGISTRY:
        params = spec.params
        for name, _canon, _default, *served_max in WORKLOAD_REGISTRY.get(spec.workload).params:
            if served_max and name in params:
                ceilings.append((f"params.{name}", served_max[0], params[name]))
    for name, ceiling, value in ceilings:
        if _served_size(value) > ceiling:
            raise ValueError(f"{name} is capped at {ceiling} for a served session")


def _check_served_counts(spec: SimulationSpec) -> None:
    """Refuse a spec whose workload derives a count past its ceiling from
    parameters that each pass theirs (``Workload.served_counts``).  Building
    the workload only canonicalises its parameters: it allocates nothing."""
    workload_class = WORKLOAD_REGISTRY.get(spec.workload)
    if workload_class.served_counts:
        workload = workload_class(spec, **spec.params)
        for name, ceiling in workload_class.served_counts:
            try:
                count = getattr(workload, name)
            except OverflowError:  # a ratio so large it has no integer form
                count = math.inf
            if count > ceiling:
                raise ValueError(
                    f"{name} (derived from params) is capped at {ceiling} for a served session"
                )


def build_session_spec(
    params: Optional[Dict[str, Any]],
    retention_default: Optional[int] = None,
) -> SimulationSpec:
    """Build the effective :class:`SimulationSpec` for a ``session.create``.

    The request names a registered ``experiment`` (its base spec, smoke
    grid unless ``"smoke": false``) or starts from :data:`DEFAULT_REQUEST`;
    every other key is a served spec field by name (or a
    :data:`WIRE_ALIASES` short name), canonicalised by the spec itself.
    Two session-level rules apply on top:

    * ``retention`` defaults to ``retention_default`` when the request does
      not mention it (pass ``"retention": null`` to force unbounded history);
    * a missing ``seed`` is *derived from the spec digest* so identical
      requests build identical sessions (see :func:`derive_session_seed`);
    * no count may pass its declared ``served_max``.
    """
    request = dict(params or {})
    experiment = request.pop("experiment", None)
    smoke = request.pop("smoke", True) if experiment is not None else True
    requested = _requested_fields(request)
    try:
        if experiment is not None:
            experiment, smoke = _text("experiment", experiment), _flag("smoke", smoke)
            spec = replace(_experiment_spec(experiment, smoke), **requested)
        else:
            spec = SimulationSpec(**{**DEFAULT_REQUEST, **requested})
        if spec.retention is None and "retention" not in requested:
            spec = replace(spec, retention=retention_default)
        _check_served_sizes(spec)
        check_plugins(spec)
        _check_served_counts(spec)
    except (KeyError, TypeError, ValueError) as error:
        message = error.args[0] if error.args else error
        raise InvalidParamsError(f"bad session spec: {message}") from error
    if "seed" in requested:
        return spec
    return spec.with_seed(derive_session_seed(spec))


def derive_session_seed(spec: SimulationSpec) -> int:
    """The deterministic seed for a spec that named none: the SeedPlan
    derivation of the spec's content digest (computed at seed 0, so the
    derivation is itself seed-independent)."""
    return derive_seed(0, "service-session", spec_digest(spec.with_seed(0)))


def session_id_for(digest: str, ordinal: int) -> str:
    """Deterministic session id: the spec's content digest plus a per-digest
    ordinal, so a replayed request log reallocates the very same ids."""
    return f"{digest}-{ordinal}"


# -- the session -------------------------------------------------------------------


class ServiceSession:
    """One multiplexed simulation with its clients, tracer and lifecycle."""

    def __init__(
        self,
        session_id: str,
        spec: SimulationSpec,
        digest: str,
        pass_turn: Callable[[], None],
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.session_id = session_id
        self.spec = spec
        self.spec_digest = digest  # the caller's one spec_digest(spec): never re-derived
        self._pass_turn = pass_turn  # fails once the server shuts down: an advance stops there
        self.advancing = False
        self.state = "open"  # open -> finished -> closed
        self.handle: SimulationHandle = build_simulation(spec)
        if self.handle.tracer is not None:
            self.handle.tracer.max_events = SERVED_TRACE_EVENTS
        self._clock = clock
        self.created_at = clock()
        self.last_used = clock()
        self.requests_served = 0
        self._started = False
        self._summary: Optional[Dict[str, Any]] = None
        self._clients: Dict[str, ContractClient] = {}

    # -- bookkeeping ---------------------------------------------------------------

    def serve(self, handler: str, kwargs: Dict[str, Any]) -> Dict[str, Any]:
        """Run one request's handler (the caller holds the engine turn) once
        the session's own advance, if any, is done.  An observed session's
        tracer is the process tracer for exactly its own requests, so two
        observed sessions each record only their own events."""
        self.settle()
        self.last_used = self._clock()
        self.requests_served += 1
        obs_runtime.activate(self.handle.tracer)  # None: the process stays untraced
        try:
            return getattr(self, handler)(**kwargs)
        finally:
            obs_runtime.deactivate()

    def settle(self) -> None:
        """Pass the engine turn on while this session is mid-advance, so a
        session's requests never interleave with its advance."""
        while self.advancing:
            self._pass_turn()

    @property
    def idle_seconds(self) -> float:
        return self._clock() - self.last_used

    def _require_open(self) -> None:
        if self.state == "closed":
            raise SessionClosedError(f"session {self.session_id} is closed")

    def _peer(self, peer_id: Optional[str]):
        if peer_id is None:
            return self.handle.client_peers[0]
        peer = self.handle.peers.get(peer_id)
        if peer is None:
            raise InvalidParamsError(
                f"unknown peer {peer_id!r}; known: {sorted(self.handle.peers)}"
            )
        return peer

    def _client(self, account: str) -> ContractClient:
        client = self._clients.get(account)
        if client is None:
            client = self._clients[account] = ContractClient(account, self._peer(None), self.handle.simulator)
        return client

    def _ensure_started(self) -> None:
        if not self._started:
            self.handle.start()
            self._started = True

    # -- driving -------------------------------------------------------------------

    def advance(
        self,
        seconds: Optional[float] = None,
        to: Optional[float] = None,
        blocks: int = 1,
    ) -> Dict[str, Any]:
        """Advance simulated time to ``to``, by ``seconds`` or by ``blocks``
        intervals (default one; the verb's declaration bounds the target),
        stepping in block-interval chunks so bounded-memory metrics resolve
        in-window, and passing the engine turn on between steps, so other
        sessions' requests run and a server shutdown interrupts."""
        self._require_open()
        simulator = self.handle.simulator
        spec = self.spec
        if to is not None:
            target = to
        elif seconds is not None:
            target = simulator.now + seconds
        else:
            target = simulator.now + blocks * spec.block_interval
        self._ensure_started()
        self.advancing = True
        try:
            while simulator.now < target:
                simulator.run_until(min(simulator.now + spec.block_interval, target))
                self.handle.metrics.resolve_from_chain(self.handle.reference_chain)
                self._pass_turn()
        finally:
            self.advancing = False
        return self.status()

    def run(self) -> Dict[str, Any]:
        """Run the workload's measured loop to completion; idempotent (the
        summary is cached, and re-running a finished engine would re-drive a
        consumed event queue)."""
        self._require_open()
        if self._summary is not None:
            return self._summary
        try:
            result = self.handle.run()
        except Exception as error:  # engine bugs become typed envelopes
            raise ExecutionError(f"simulation run failed: {error}") from error
        self._summary = result.summary()
        self.state = "finished"
        return self._summary

    def summary(self) -> Dict[str, Any]:
        if self._summary is None:
            raise InvalidParamsError(
                f"session {self.session_id} has not run to completion; "
                "call session.run first (or query session.status / session.metrics)"
            )
        return self._summary

    # -- transactions ---------------------------------------------------------------

    def deploy(
        self,
        account: str,
        code: str,
        constructor: bytes = b"",
        value: int = 0,
    ) -> Dict[str, Any]:
        """Deploy a registered contract from ``account``; the address is
        derived from (sender, nonce) before the deploy commits, exactly as a
        real client predicts it."""
        self._require_open()
        self._ensure_started()
        client = self._client(account)
        transaction = client.deploy(code, constructor, value=value)
        address = contract_address(client.address, transaction.nonce)
        return {
            "transaction_hash": to_hex(transaction.hash),
            "contract_address": to_hex(address),
            "nonce": transaction.nonce,
            "submitted_at": transaction.submitted_at,
        }

    def submit(
        self,
        account: str,
        to: Address,
        data: bytes = b"",
        value: int = 0,
        gas_limit: Optional[int] = None,
    ) -> Dict[str, Any]:
        self._require_open()
        self._ensure_started()
        client = self._client(account)
        transaction = client.send_transaction(to=to, data=data, value=value, gas_limit=gas_limit)
        return {
            "transaction_hash": to_hex(transaction.hash),
            "nonce": transaction.nonce,
            "submitted_at": transaction.submitted_at,
        }

    def receipt(self, transaction_hash: bytes) -> Dict[str, Any]:
        self._require_open()
        receipt = self.handle.reference_chain.receipt_for(transaction_hash)
        if receipt is None:
            return {"committed": False}
        return {
            "committed": True,
            "success": receipt.success,
            "gas_used": receipt.gas_used,
            "error": receipt.error,
            "block_number": receipt.block_number,
            "transaction_index": receipt.transaction_index,
            "block_timestamp": receipt.block_timestamp,
            "logs": len(receipt.logs),
            "return_data": to_hex(receipt.return_data),
        }

    # -- queries -------------------------------------------------------------------

    def call(
        self,
        contract: Address,
        function: str,
        arguments: Sequence[Any] = (),
        account: str = VIEW_CALLER_LABEL,
        peer: Optional[str] = None,
        allow_raa: bool = True,
    ) -> Dict[str, Any]:
        """A view call against one peer's local state — on a Sereth peer with
        ``allow_raa`` this is the paper's READ-UNCOMMITTED read path."""
        self._require_open()
        self._ensure_started()
        target_peer = self._peer(peer)
        try:
            result = target_peer.call_contract(
                contract,
                function,
                list(arguments),
                caller=address_from_label(account),
                now=self.handle.simulator.now,
                allow_raa=allow_raa,
            )
            return_data = result.return_data
        except (KeyError, TypeError, ValueError) as error:
            message = error.args[0] if error.args else error
            raise InvalidParamsError(f"call failed: {message}") from error
        return {
            "values": jsonable(list(result.values)),
            "gas_used": result.gas_used,
            "return_data": to_hex(return_data),
        }

    def balance(self, account: Address) -> Dict[str, Any]:
        self._require_open()
        return {
            "address": to_hex(account),
            "balance": self.handle.reference_chain.state.get_balance(account),
        }

    def storage(self, contract: Address, slot: int) -> Dict[str, Any]:
        self._require_open()
        word = self.handle.reference_chain.state.get_storage(contract, bytes32_from_int(slot))
        return {"address": to_hex(contract), "slot": slot, "value": to_hex(word)}

    def hms_status(self, peer: Optional[str] = None) -> Dict[str, Any]:
        """Every watched contract's Hash-Mark-Set view on one peer (default:
        the first client peer): predicted mark/value, series depth, source."""
        self._require_open()
        target_peer = self._peer(peer)
        entries = []
        for contract_addr, _selector in self.handle.workload.hms_targets():
            provider = target_peer.hms_provider(contract_addr)
            if provider is None:
                entries.append({"contract": to_hex(contract_addr), "installed": False})
                continue
            view = provider.view()
            entries.append(
                {
                    "contract": to_hex(contract_addr),
                    "installed": True,
                    "source": view.source,
                    "mark": to_hex(view.mark),
                    "value": to_hex(view.value),
                    "depth": view.depth,
                    "pool_size": view.pool_size,
                    "requests_served": provider.requests_served,
                }
            )
        return {"peer": target_peer.peer_id, "watched": entries}

    def status(self) -> Dict[str, Any]:
        metrics = self.handle.metrics
        chain = self.handle.reference_chain
        return {
            "session": self.session_id,
            "state": self.state,
            "now": self.handle.simulator.now,
            "height": chain.height,
            "blocks_produced": self.handle.production.blocks_produced,
            "watched": metrics.watched_count(),
            "pending": metrics.pending_count(),
            "committed": metrics.committed_count(),
            "seed": self.spec.seed,
            "spec_digest": self.spec_digest,
            "requests_served": self.requests_served,
        }

    def describe(self) -> Dict[str, Any]:
        return {
            "session": self.session_id,
            "state": self.state,
            "seed": self.spec.seed,
            "spec_digest": self.spec_digest,
            "spec": self.spec.describe(),
        }

    def metrics_report(self) -> Dict[str, Any]:
        self._require_open()
        metrics = self.handle.metrics
        metrics.resolve_from_chain(self.handle.reference_chain)
        return {
            "labels": {
                label: jsonable(metrics.report(label).as_dict())
                for label in metrics.labels()
            }
        }

    # -- lifecycle ------------------------------------------------------------------

    def close(self) -> None:
        """Idempotent teardown: the session refuses further work."""
        self.state = "closed"
