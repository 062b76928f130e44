"""The workload base: what a plugin declares once, and the hooks derived from it.

A workload owns everything experiment-specific — which contracts exist in
genesis, which accounts are funded, which client actors run, what they
submit and when, and when the run is "done" — while the engine owns
everything generic (network, peers, mining, the run loop).  Registering a
subclass with :func:`~repro.api.registry.register_workload` makes it
available to the builder, the sweep engine, and the CLI by name:

    @register_workload("my_market")
    class MyMarket(Workload):
        ...

    Simulation.builder().scenario("semantic_mining").workload("my_market").build()

Every shipped workload reproduces the paper's Section V set-up: a
Sereth-style contract whose ``set`` function HMS watches, and ``buy``
functions semantic miners order after it.  A plugin declares that wiring
once, as class attributes, and the base derives ``hms_targets``,
``semantic_config``, ``adversary_target``, ``is_complete``,
``duration_cap`` and the Sereth genesis deploy from it:

* ``contract_label`` — the watched contract's address label;
* ``owner`` — the account that owns the contract and submits its sets;
* ``set_selector`` / ``buy_selectors`` — the watched ``set`` and the buys
  semantic miners order after it (``None``: semantic miners get no config
  and keep arrival-jitter order);
* ``primary_label`` — the metrics label whose efficiency is the headline;
* ``expected_watched`` — how many watched transactions decide the run;
* ``params`` — one ``(name, canonicaliser, default)`` entry per parameter,
  so bad parameters are refused when the spec is built, not mid-run; a
  count the workload books events or actors by adds a fourth element, its
  ``served_max`` (the spec knobs' column of that name).

The defaults are the paper's Sereth exchange.  Each plugin also defines
``setup`` (create client actors), ``schedule`` (book their events) and
``end_of_submissions`` (the time of the last one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING, Union

from ..adversary.base import AdversaryTarget
from ..api.spec import _POSITIVE_INTEGER as COUNT, Canon, _checked, _number
from ..chain.genesis import GenesisConfig
from ..clients.market import PriceSetter
from ..contracts.sereth import BUY_SELECTOR, SET_SELECTOR, genesis_storage, initial_mark
from ..core.hms.process import HMSConfig
from ..core.hms.semantic import SemanticMiningConfig
from ..crypto.addresses import Address, address_from_label

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.seeding import SeedPlan
    from ..api.spec import SimulationSpec
    from ..core.metrics import MetricsCollector
    from ..net.peer import Peer
    from ..net.sim import Simulator

__all__ = [
    "SimulationContext",
    "Workload",
    "Param",
    "COUNT",
    "SECONDS",
    "TIME",
    "OWNER_LABEL",
    "SERETH_CONTRACT_LABEL",
    "sereth_exchange_address",
]

OWNER_LABEL = "owner"
SERETH_CONTRACT_LABEL = "sereth-exchange"

Param = Union[Tuple[str, Canon, Any], Tuple[str, Canon, Any, int]]
"""One workload parameter: ``(name, canonicaliser, default[, served_max])``."""

SECONDS = _checked(_number, lambda value: 0 < value < math.inf, "positive and finite")
TIME = _checked(_number, lambda value: 0 <= value < math.inf, "non-negative and finite")


def sereth_exchange_address() -> Address:
    """The fixed address the experiments pre-deploy the Sereth exchange at."""
    return address_from_label(SERETH_CONTRACT_LABEL)


@dataclass
class SimulationContext:
    """Everything a workload (or adversary) can touch while the simulation runs."""

    spec: "SimulationSpec"
    seeds: "SeedPlan"
    simulator: "Simulator"
    network: object
    peers: Dict[str, "Peer"]
    miner_peers: List["Peer"]
    client_peers: List["Peer"]
    metrics: "MetricsCollector"
    adversary_peers: List["Peer"] = field(default_factory=list)
    """The per-adversary observation peers (separate from client peers so
    workload actor placement is unaffected by attackers joining)."""
    production: object = None
    """The block production process — exposed so adversarial strategies can
    subvert miner policies (censoring miners)."""

    @property
    def reference_chain(self):
        """The chain metrics are resolved against (the first miner's)."""
        return self.miner_peers[0].chain


class Workload:
    """Base class for pluggable workloads.

    Lifecycle, as driven by :func:`repro.api.engine.run_simulation`:

    1. ``account_labels`` / ``configure_genesis`` shape the genesis state;
    2. ``hms_targets`` lists (contract, set_selector) pairs installed on
       every Sereth peer; ``semantic_config`` feeds the semantic miners;
    3. ``setup`` creates client actors, ``schedule`` books their events;
    4. the engine runs to ``end_of_submissions``, then in block-interval
       steps until ``is_complete`` or ``duration_cap``;
    5. ``finalize`` computes workload-specific extras for the result.
    """

    name: str = ""
    contract_label: str = SERETH_CONTRACT_LABEL
    owner: str = OWNER_LABEL
    set_selector: bytes = SET_SELECTOR
    buy_selectors: Optional[Tuple[bytes, ...]] = (BUY_SELECTOR,)
    primary_label: Optional[str] = None
    params: Tuple[Param, ...] = ()
    post_stop_drain: float = 0.0
    """Extra simulated seconds to run after mining stops (deliveries in flight)."""

    def __init__(self, spec: "SimulationSpec", **params: Any) -> None:
        self.spec = spec
        declared = [name for name, *_declaration in self.params]
        unknown = sorted(set(params) - set(declared))
        if unknown:
            raise TypeError(f"unexpected parameters {unknown}; {self.name!r} takes {declared}")
        for name, canon, default, *_served_max in self.params:
            setattr(self, name, canon(name, params[name]) if name in params else default)
        self.contract = address_from_label(self.contract_label)

    # -- genesis phase -----------------------------------------------------------------

    def account_labels(self) -> Sequence[str]:
        """Labels of externally-owned accounts to fund in genesis."""
        return [self.owner]

    def configure_genesis(self, genesis: GenesisConfig) -> None:
        """Pre-deploy the watched Sereth exchange, owned by ``owner``."""
        genesis.deploy_contract(
            self.contract,
            "Sereth",
            storage=genesis_storage(address_from_label(self.owner), self.contract),
        )

    def hms_targets(self) -> Sequence[Tuple[Address, bytes]]:
        """(contract, set_selector) pairs Sereth peers watch with HMS."""
        return [(self.contract, self.set_selector)]

    def semantic_config(self) -> Optional[SemanticMiningConfig]:
        """The HMS configuration semantic miners order blocks with."""
        if self.buy_selectors is None:
            return None
        return SemanticMiningConfig(
            hms=HMSConfig(contract_address=self.contract, set_selector=self.set_selector),
            buy_selectors=self.buy_selectors,
        )

    def adversary_target(self) -> AdversaryTarget:
        """What the adversaries attack: the watched contract and its selectors."""
        return AdversaryTarget(
            contract_address=self.contract,
            set_selector=self.set_selector,
            buy_selectors=tuple(self.buy_selectors or ()),
        )

    # -- run phase ---------------------------------------------------------------------

    def owner_setter(self, context: SimulationContext, **options: Any) -> PriceSetter:
        """The owner's price setter on the first client peer, its mark chain
        primed with the contract's genesis mark."""
        setter = PriceSetter(
            self.owner, context.client_peers[0], context.simulator, self.contract, **options
        )
        setter.prime_mark(initial_mark(self.contract))
        return setter

    @property
    def expected_watched(self) -> Optional[int]:
        """How many watched transactions decide the run (``None``: run to the cap)."""
        return None

    def is_complete(self, context: SimulationContext) -> bool:
        """Whether every watched outcome is decided (enables early exit)."""
        expected = self.expected_watched
        if expected is None:
            return False
        metrics, label = context.metrics, self.primary_label
        return metrics.watched_count(label) == expected and metrics.pending_count(label) == 0

    def duration_cap(self, spec: "SimulationSpec") -> float:
        """Hard stop for the run loop: ``spec.max_duration`` if set, else
        :meth:`natural_duration`."""
        if spec.max_duration is not None:
            return spec.max_duration
        return self.natural_duration(spec)

    def natural_duration(self, spec: "SimulationSpec") -> float:
        """When the run stops on its own: the submissions, then time to settle."""
        return self.end_of_submissions + spec.settle_blocks * spec.block_interval + 60.0

    def finalize(self, context: SimulationContext) -> Dict[str, Any]:
        """Workload-specific extras attached to the result."""
        return {}


def submit_watched(metrics: "MetricsCollector", label: str, send: Callable) -> Callable[[], None]:
    """An event that sends one transaction and watches it under ``label``."""

    def fire() -> None:
        transaction = send()
        metrics.watch(transaction, label, submitted_at=transaction.submitted_at)

    return fire
