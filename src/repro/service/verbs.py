"""Every RPC verb, declared once.

One :class:`Verb` row per JSON-RPC method in :data:`VERBS` says which
handler runs it (a ``ServiceSession`` method for ``session`` verbs; else a
``SimulatorService`` method), each parameter's canonicaliser and whether it
is required, and the flags the rest of the service reads: dispatch checks
and canonicalises params before it takes the engine turn, ``control`` verbs
never take it, ``ServiceClient`` retries only ``idempotent`` verbs, and the
request journal records only ``journaled`` ones.

The canonicalisers are :mod:`repro.api.spec`'s (JSON numbers only, strict
booleans, non-empty text) plus the wire forms below: ``0x`` hex bytes, an
account label or ``0x`` address, a call's argument array.  A JSON ``null``
for an optional parameter means "not given".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Any, Callable, Dict, List, Mapping, Optional

from ..api.spec import _POSITIVE_INTEGER, Canon, _checked, _flag, _integer, _number, _text
from ..crypto.addresses import ADDRESS_LENGTH, address_from_label
from ..encoding.hexutil import from_hex
from .errors import InvalidParamsError

__all__ = ["Verb", "VERBS"]


def _hex(name: str, value: Any) -> bytes:
    if not isinstance(value, str) or not value.startswith("0x"):
        raise ValueError(f"{name} must be a 0x-prefixed hex string, got {value!r}")
    try:
        return from_hex(value)
    except ValueError:
        raise ValueError(f"{name} is not valid hex: {value!r}") from None


def _address(name: str, value: Any) -> bytes:
    """An account label or ``0x`` hex string as a 20-byte address."""
    if isinstance(value, str) and value.startswith("0x"):
        raw = _hex(name, value)
        if len(raw) != ADDRESS_LENGTH:
            raise ValueError(f"{name} must be {ADDRESS_LENGTH} bytes, got {len(raw)}")
        return raw
    return address_from_label(_text(name, value))


def _argument(name: str, value: Any) -> Any:
    """One call argument in the engine's native form (``0x`` hex -> bytes)."""
    if isinstance(value, str) and value.startswith("0x"):
        return _hex(name, value)
    if isinstance(value, list):
        return [_argument(name, item) for item in value]
    if isinstance(value, (int, str)) or value is None:
        return value
    raise ValueError(f"{name} holds an unsupported call argument {value!r}")


def _arguments(name: str, value: Any) -> List[Any]:
    if not isinstance(value, list):
        raise ValueError(f"{name} must be an array, got {value!r}")
    return _argument(name, value)


_FINITE = _checked(_number, math.isfinite, "finite")
_DURATION = _checked(_number, lambda value: math.isfinite(value) and value >= 0, "finite and non-negative")
_COUNT = _checked(_integer, lambda value: value >= 0, "non-negative")
_UINT256 = _checked(_integer, lambda value: 0 <= value < 2**256, "in [0, 2**256)")


def _advance_within(session: Any, kwargs: Dict[str, Any], max_blocks: int) -> None:
    """``session.advance``'s per-request work bound: at most one of ``to`` /
    ``seconds`` / ``blocks``, and a target at most ``max_blocks`` block
    intervals past ``now`` -- simulated units, never wall time, so a
    replayed journal refuses exactly what the live server refused."""
    if len(kwargs) > 1:
        raise InvalidParamsError(f"name at most one of to, seconds, blocks; got {sorted(kwargs)}")
    interval = session.spec.block_interval
    if "to" in kwargs:
        ahead = (kwargs["to"] - session.handle.simulator.now) / interval
    elif "seconds" in kwargs:
        ahead = kwargs["seconds"] / interval
    else:
        ahead = kwargs.get("blocks", 1)
    if ahead > max_blocks:
        raise InvalidParamsError(f"advance target is more than {max_blocks} block intervals past now")


@dataclass(frozen=True)
class Verb:
    """One RPC method's declaration.  A ``session`` verb also requires the
    ``session`` id; for a ``spec_request`` verb (``session.create``, whose
    keys the spec's own field declarations check) the dispatcher builds the
    whole params object into a spec and hands the handler ``spec``."""

    handler: str
    session: bool = False
    control: bool = False
    """Never takes the engine turn (nor counts against admission): never
    enters an engine, and reads the session table as a snapshot."""
    idempotent: bool = False
    """Safe for a client to resend after a lost answer."""
    journaled: bool = False
    """Changes state a journal replay must rebuild."""
    required: Mapping[str, Canon] = field(default_factory=dict)
    optional: Mapping[str, Canon] = field(default_factory=dict)
    check: Optional[Callable[[Any, Dict[str, Any]], None]] = None
    """A refusal that needs the session (still made before the turn)."""
    spec_request: bool = False

    @cached_property
    def required_params(self) -> Dict[str, Canon]:
        return {"session": _text, **self.required} if self.session else dict(self.required)

    @cached_property
    def params(self) -> Dict[str, Canon]:
        """Every accepted parameter's canonicaliser."""
        return {**self.required_params, **self.optional}

    def arguments(self, params: Any) -> Dict[str, Any]:
        """The handler's keyword arguments, canonicalised; a non-object, an
        unknown key, a missing required parameter or an ill-typed value is
        :class:`InvalidParamsError`."""
        if params is None:
            params = {}
        if not isinstance(params, dict):
            raise InvalidParamsError("params must be an object")
        if self.spec_request:
            return {"request": dict(params)}
        kwargs = {}
        try:
            for name, value in params.items():
                canon = self.params.get(name)
                if canon is None:
                    raise InvalidParamsError(f"unknown parameter {name!r}; accepted: {sorted(self.params)}")
                if value is not None:
                    kwargs[name] = canon(name, value)
        except ValueError as error:
            raise InvalidParamsError(str(error)) from error
        missing = self.required_params.keys() - kwargs.keys()
        if missing:
            raise InvalidParamsError(f"missing required parameters {sorted(missing)}")
        return kwargs


VERBS: Dict[str, Verb] = {
    "service.ping": Verb("_rpc_ping", control=True, idempotent=True),
    "service.status": Verb("_rpc_status", control=True, idempotent=True),
    "service.shutdown": Verb("_rpc_shutdown", control=True),
    "registry.list": Verb("_rpc_registry_list", control=True, idempotent=True),
    "obs.probes": Verb("_rpc_probes", control=True, idempotent=True),
    "session.create": Verb("_rpc_session_create", journaled=True, spec_request=True),
    "session.list": Verb("_rpc_session_list", idempotent=True),
    "session.close": Verb("_rpc_session_close", journaled=True, required={"session": _text}),
    "session.describe": Verb("describe", session=True, idempotent=True),
    "session.status": Verb("status", session=True, idempotent=True),
    "session.advance": Verb(
        "advance", session=True, journaled=True, check=partial(_advance_within, max_blocks=100_000),
        optional={"seconds": _DURATION, "to": _FINITE, "blocks": _COUNT},
    ),
    # The session caches run's summary: a repeated run returns it unchanged.
    "session.run": Verb("run", session=True, idempotent=True, journaled=True),
    "session.summary": Verb("summary", session=True, idempotent=True),
    "session.metrics": Verb("metrics_report", session=True, idempotent=True),
    "contract.deploy": Verb(
        "deploy", session=True, journaled=True, required={"account": _text, "code": _text},
        optional={"constructor": _hex, "value": _UINT256},
    ),
    "contract.call": Verb(
        "call", session=True, idempotent=True, required={"contract": _address, "function": _text},
        optional={"arguments": _arguments, "account": _text, "peer": _text, "allow_raa": _flag},
    ),
    "tx.submit": Verb(
        "submit", session=True, journaled=True, required={"account": _text, "to": _address},
        optional={"data": _hex, "value": _UINT256, "gas_limit": _POSITIVE_INTEGER},
    ),
    "tx.receipt": Verb("receipt", session=True, idempotent=True, required={"transaction_hash": _hex}),
    "state.balance": Verb("balance", session=True, idempotent=True, required={"account": _address}),
    "state.storage": Verb(
        "storage", session=True, idempotent=True, required={"contract": _address, "slot": _UINT256}
    ),
    "hms.status": Verb("hms_status", session=True, idempotent=True, optional={"peer": _text}),
}
"""Every RPC method the server dispatches, by name."""
