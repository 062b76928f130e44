"""The immutable description of one simulation run.

A :class:`SimulationSpec` is everything :func:`repro.api.engine.run_simulation`
needs to stand up a network, drive a workload, and measure it — and nothing
else.  Specs are frozen dataclasses built from plain values, so they are
hashable, picklable (the sweep engine ships them to worker processes), and
diffable (``describe()`` renders a stable dictionary).

Each field is declared once, with :func:`knob`: its canonicaliser, its
``describe()`` renderer, whether ``describe()`` elides it at its default or
never renders it, whether ``session.create`` refuses it, and how large a
value ``session.create`` may ask for.  Construction,
``replace()``, the builder's setters, sweep dimensions, ``--set`` and the
served ``session.create`` all canonicalise through that one declaration.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from ..experiments.scenario import Scenario
from ..net.topology import freeze_bandwidth, freeze_churn, freeze_topology

__all__ = ["SimulationSpec", "canonical", "freeze_params", "freeze_adversaries", "freeze_faults"]

MINER_POLICIES = ("arrival_jitter", "random", "fifo", "fee_arrival")
"""Baseline ordering-policy overrides a spec may request by name."""


def freeze_params(params: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """Canonicalize a workload parameter dict into a hashable sorted tuple."""
    frozen = []
    for key in sorted(params):
        value = params[key]
        if isinstance(value, list):
            value = tuple(value)
        frozen.append((key, value))
    return tuple(frozen)


def _freeze_entries(entries, kind: str) -> Tuple[Tuple[str, Tuple[Tuple[str, Any], ...]], ...]:
    """Canonicalize ``(name, params)`` entries into hashable tuples.

    Each entry is a bare name, a ``(name, params)`` pair, or a ``{"name",
    "params"}`` object (the ``describe()`` and wire form); a bare name or a
    single object stands for a one-entry list, never for its characters.
    """
    if isinstance(entries, (str, Mapping)):
        entries = (entries,)
    frozen = []
    for entry in entries:
        try:
            if isinstance(entry, str):
                name, params = entry, ()
            elif isinstance(entry, Mapping):
                name, params = entry["name"], entry.get("params") or ()
            else:
                name, params = entry
            params = freeze_params(dict(params))
        except (KeyError, TypeError, ValueError) as error:
            raise ValueError(
                f"{kind} entries must be names or (name, params) pairs, got {entry!r}"
            ) from error
        if not name or not isinstance(name, str):
            raise ValueError(f"{kind} entries must be (name, params) tuples, got {name!r}")
        frozen.append((name, params))
    return tuple(frozen)


def freeze_adversaries(adversaries) -> Tuple[Tuple[str, Tuple[Tuple[str, Any], ...]], ...]:
    """Canonicalize adversary entries (shape only: names resolve against
    :data:`repro.adversary.ADVERSARY_REGISTRY` at build time, where the
    adversary's parameter checks can see the whole spec)."""
    return _freeze_entries(adversaries, "adversaries")


def freeze_faults(faults) -> Tuple[Tuple[str, Tuple[Tuple[str, Any], ...]], ...]:
    """Canonicalize fault entries — the :func:`freeze_adversaries` shape —
    and validate each against :data:`repro.faults.FAULT_REGISTRY` by
    constructing it once."""
    frozen = _freeze_entries(faults, "faults")
    if frozen:
        from ..faults import FAULT_REGISTRY, build_fault

        for name, params in frozen:
            if name not in FAULT_REGISTRY:
                raise ValueError(
                    f"unknown fault {name!r}; registered: {FAULT_REGISTRY.names()}"
                )
            try:
                build_fault(name, params)
            except (TypeError, ValueError) as error:
                raise ValueError(f"invalid parameters for fault {name!r}: {error}") from error
    return frozen


# -- field canonicalisers: (name, value) -> stored value, or ValueError ----------------

Canon = Callable[[str, Any], Any]


def _integer(name: str, value: Any) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _number(name: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must fit a float, got a {value.bit_length()}-bit integer") from None


def _flag(name: str, value: Any) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


def _text(name: str, value: Any) -> str:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{name} must be a non-empty string, got {value!r}")
    return value


def _checked(canon: Canon, holds: Callable[[Any], bool], requirement: str) -> Canon:
    """``canon``, then ``{name} must be {requirement}`` unless ``holds``."""

    def check(name: str, value: Any) -> Any:
        value = canon(name, value)
        if not holds(value):
            raise ValueError(f"{name} must be {requirement}, got {value!r}")
        return value

    return check


def _optional(canon: Canon) -> Canon:
    return lambda name, value: None if value is None else canon(name, value)


def _frozen(freeze: Callable[[Any], Any]) -> Canon:
    return lambda _name, value: freeze(value)


_POSITIVE_INTEGER = _checked(_integer, lambda value: value > 0, "positive")
_POSITIVE = _checked(_number, lambda value: value > 0, "positive")
_NON_NEGATIVE = _checked(_number, lambda value: value >= 0, "non-negative")


def _scenario(name: str, value: Any) -> Scenario:
    if isinstance(value, Scenario):
        return value
    from .registry import SCENARIO_REGISTRY

    if not isinstance(value, str) or value not in SCENARIO_REGISTRY:
        raise ValueError(f"unknown scenario {value!r}; registered: {SCENARIO_REGISTRY.names()}")
    return SCENARIO_REGISTRY.get(value)


def _labels(name: str, value: Any) -> Tuple[str, ...]:
    if isinstance(value, str):
        value = (value,)
    if not all(isinstance(label, str) and label for label in value):
        raise ValueError(f"{name} must be non-empty string labels")
    return tuple(value)


def _entries(value) -> list:
    """The ``describe()`` form of ``(name, params)`` entries."""
    return [{"name": name, "params": dict(params)} for name, params in value]


def knob(
    canon: Canon,
    default: Any = MISSING,
    *,
    render: Optional[Callable[[Any], Any]] = None,
    elide: bool = False,
    hidden: bool = False,
    refused: Optional[str] = None,
    served_max: Optional[int] = None,
):
    """Declare a spec field with everything every path needs to know about it.

    ``canon(name, value)`` coerces and validates (raising ``ValueError``) and
    returns the stored value; ``render`` is its JSON-ready ``describe()``
    form (``None``: the value itself); ``elide`` leaves it out of
    ``describe()`` while it equals its default, so specs that never set it
    keep the exact bytes (and digests) recorded before it existed;
    ``hidden`` never renders it; ``refused`` says why ``session.create``
    does not accept it; ``served_max`` is the largest count a served
    session may ask for (a number's value, a list's length, or each
    parameter of a ``(name, params)`` entry): a ceiling on what one request
    can make the server allocate, not checked for direct runs.
    """
    return field(
        default=default,
        metadata={
            "canon": canon,
            "render": render,
            "elide": elide,
            "hidden": hidden,
            "refused": refused,
            "served_max": served_max,
        },
    )


@dataclass(frozen=True)
class SimulationSpec:
    """One fully specified simulation: scenario x workload x network shape."""

    scenario: Scenario = knob(_scenario, render=lambda scenario: scenario.name)
    """Which client software / read mode / mining policy combination runs;
    a registered scenario name resolves to its instance."""
    workload: str = knob(_text)
    """Registered workload name ("market", "ticket_sale", "auction", …)."""
    workload_params: Tuple[Tuple[str, Any], ...] = knob(
        _frozen(lambda params: freeze_params(dict(params))), (), render=dict
    )
    """Workload-specific knobs, canonicalized by :func:`freeze_params`."""
    adversaries: Tuple[Tuple[str, Tuple[Tuple[str, Any], ...]], ...] = knob(
        _frozen(freeze_adversaries), (), render=_entries
    )
    """Attack strategies running alongside the workload, as ``(name, params)``
    entries canonicalized by :func:`freeze_adversaries`."""

    num_miners: int = knob(_POSITIVE_INTEGER, 1, served_max=64)
    num_client_peers: int = knob(_POSITIVE_INTEGER, 2, served_max=256)
    block_interval: float = knob(_POSITIVE, 13.0)
    fixed_block_interval: bool = knob(_flag, False)
    gossip_latency: float = knob(_NON_NEGATIVE, 0.08)
    gossip_jitter: float = knob(_NON_NEGATIVE, 0.06)
    transaction_loss_rate: float = knob(
        _checked(_number, lambda rate: 0.0 <= rate < 1.0, "in [0, 1)"), 0.0
    )
    miner_order_jitter: float = knob(_NON_NEGATIVE, 4.0)
    miner_policy: Optional[str] = knob(
        _optional(
            _checked(_text, MINER_POLICIES.__contains__, f"a miner policy in {MINER_POLICIES}")
        ),
        None,
    )
    """Override the baseline ordering policy (one of MINER_POLICIES); ``None``
    keeps the scenario's default (arrival jitter, or semantic mining)."""
    client_kind_overrides: Tuple[Tuple[str, str], ...] = knob(
        _frozen(lambda overrides: tuple(sorted(dict(overrides).items()))), (), render=dict
    )
    """Per-peer client-kind overrides, e.g. (("client-1", "geth"),) for a
    mixed Sereth/Geth network."""
    block_gas_limit: int = knob(_POSITIVE_INTEGER, 30_000_000)
    max_transactions_per_block: Optional[int] = knob(_optional(_POSITIVE_INTEGER), None)
    transaction_gas_limit: int = knob(_POSITIVE_INTEGER, 200_000)
    seed: int = knob(_integer, 0)
    settle_blocks: int = knob(_checked(_integer, lambda count: count >= 0, "non-negative"), 6)
    max_duration: Optional[float] = knob(_optional(_POSITIVE), None)
    topology: Optional[Tuple[str, Tuple[Tuple[str, Any], ...]]] = knob(
        _frozen(freeze_topology),
        None,
        render=lambda topology: {"name": topology[0], "params": dict(topology[1])},
        elide=True,
        served_max=256,
    )
    """Gossip graph as ``(name, params)`` against
    :data:`repro.net.topology.TOPOLOGY_REGISTRY` (canonicalized and validated
    by ``freeze_topology``).  ``None`` keeps the legacy direct-broadcast full
    mesh."""
    bandwidth: Optional[Tuple[Tuple[str, Any], ...]] = knob(
        _frozen(freeze_bandwidth), None, render=dict, elide=True
    )
    """Per-link FIFO bandwidth as frozen ``BandwidthModel`` parameters; a
    bare number is taken as ``bytes_per_second``.  ``None`` disables
    serialisation delay (the legacy behaviour)."""
    churn: Tuple[Tuple[Any, ...], ...] = knob(
        _frozen(freeze_churn),
        (),
        render=lambda churn: [list(event) for event in churn],
        elide=True,
        served_max=1024,
    )
    """Scheduled churn events, e.g. ``(("leave", 40.0, "client-3"),
    ("join", 90.0, "client-3"))`` — see ``ChurnPlan.from_events``."""
    faults: Tuple[Tuple[str, Tuple[Tuple[str, Any], ...]], ...] = knob(
        _frozen(freeze_faults), (), render=_entries, elide=True
    )
    """Deterministic fault injection as ``(name, params)`` entries — the same
    frozen shape as ``adversaries``, validated against
    :data:`repro.faults.FAULT_REGISTRY` by :func:`freeze_faults`.  ``()``
    arms nothing: the network keeps the golden-gated clean path."""
    retention: Optional[int] = knob(_optional(_integer), None, elide=True)
    """Keep only the newest N blocks per chain (and the matching apply-cache
    window); older history folds into a sealed ``ChainAnchor``.  ``None``
    keeps unbounded history."""
    metrics_window: Optional[float] = knob(_optional(_POSITIVE), None, elide=True)
    """Fold resolved metrics rows into bounded per-label aggregates bucketed
    by this many simulated seconds instead of keeping whole-run row lists.
    ``None`` keeps the unbounded, byte-stable collector."""
    extra_accounts: Tuple[str, ...] = knob(_labels, (), render=list, elide=True)
    """Additional account labels funded at genesis (beyond the peers' own
    workload clients).  The service facade uses this to give RPC callers
    spendable accounts; labels map to addresses via ``address_from_label``."""
    observe: bool = knob(_flag, False, elide=True)
    """Run with the ``repro.obs`` tracer active: typed lifecycle events,
    phase timers, and a probe snapshot land in the result's ``observability``
    summary key.  ``False`` keeps the traced call sites to a single dead
    branch — the golden-gated zero-cost path."""
    trace_dir: Optional[str] = knob(
        _optional(_text),
        None,
        hidden=True,
        refused="it implies observe and names a server-side directory",
    )
    """Directory to write this run's trace files into (``trace_<digest>.jsonl``
    + ``trace_<digest>.trace.json``); setting it implies ``observe=True``.
    Never rendered: it names an output location, not simulation behaviour,
    so per-job digests stay stable across runs pointed at different
    directories."""

    def __post_init__(self) -> None:
        # Canonicalize in place (frozen dataclass) so hand-written specs using
        # names, dicts or lists hash and describe like builder-made ones.
        for name in _CANONICALISERS:
            object.__setattr__(self, name, canonical(name, getattr(self, name)))
        if self.retention is not None:
            # The window must cover the settle horizon (receipts are consulted
            # until settle_blocks after the last submission) plus sync slack.
            floor = max(self.settle_blocks + 2, 8)
            if self.retention < floor:
                raise ValueError(
                    f"retention must be at least {floor} blocks "
                    f"(settle_blocks={self.settle_blocks} + sync slack)"
                )
        if self.trace_dir is not None:
            object.__setattr__(self, "observe", True)

    # -- accessors ---------------------------------------------------------------------

    @property
    def params(self) -> Dict[str, Any]:
        """The workload parameters as a plain dictionary."""
        return dict(self.workload_params)

    @property
    def scenario_name(self) -> str:
        return self.scenario.name

    def client_kind_for(self, peer_id: str) -> str:
        """The client software ``peer_id`` runs (scenario default or override)."""
        for override_id, kind in self.client_kind_overrides:
            if override_id == peer_id:
                return kind
        return self.scenario.client_kind

    # -- derivation ---------------------------------------------------------------------

    def with_seed(self, seed: int) -> "SimulationSpec":
        return replace(self, seed=seed)

    def with_params(self, **params: Any) -> "SimulationSpec":
        """A copy with ``params`` merged into the workload parameters."""
        merged = self.params
        merged.update(params)
        return replace(self, workload_params=freeze_params(merged))

    def describe(self) -> Dict[str, Any]:
        """A stable, JSON-ready rendering of the spec (for export/diffing),
        driven by each field's declared renderer and elision rule."""
        description = {}
        for name, render, elided_at in _RENDERERS:
            value = getattr(self, name)
            if value == elided_at:
                continue
            description[name] = value if render is None else render(value)
        return description


_CANONICALISERS = {
    spec_field.name: spec_field.metadata["canon"] for spec_field in fields(SimulationSpec)
}
_RENDERERS = tuple(
    (
        spec_field.name,
        spec_field.metadata["render"],
        spec_field.default if spec_field.metadata["elide"] else object(),
    )
    for spec_field in fields(SimulationSpec)
    if not spec_field.metadata["hidden"]
)
"""(name, renderer, value it is left out at) per rendered field; a fresh
``object()`` equals no value, so a field that is never elided always renders."""


def canonical(name: str, value: Any) -> Any:
    """``value`` as spec field ``name`` stores it; raises ``ValueError``
    (malformed shapes included) for a value the field cannot hold."""
    try:
        return _CANONICALISERS[name](name, value)
    except (AttributeError, KeyError, TypeError) as error:
        raise ValueError(f"bad {name} {value!r}: {error}") from error
