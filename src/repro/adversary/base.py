"""The adversary framework: lifecycle hooks, wiring, and shared metrics.

An :class:`Adversary` is the attacker-side counterpart of
:class:`~repro.workloads.base.Workload`: the engine owns everything generic
(an adversary peer on the gossip network, a funded account, a seeded RNG
stream, the observation loop) while the strategy owns only *what the attack
does*.  Strategies implement three lifecycle hooks, all driven from the
adversary's own peer — an attacker can only act on what its node can see:

* :meth:`Adversary.on_pending_tx` — a transaction newly arrived in the
  adversary peer's pool (the mempool-watching attacks: displacement,
  insertion, suppression);
* :meth:`Adversary.on_block` — a block newly imported by the adversary's
  peer (for attacks that react to committed state);
* :meth:`Adversary.on_tick` — a periodic heartbeat at ``poll_interval``
  (for attacks that act on wall-clock structure, e.g. the stale oracle).

Everything stochastic an adversary does must draw from ``self.rng``, which
the engine seeds from the run's :class:`~repro.api.seeding.SeedPlan` — so an
attack trace is byte-identical across serial and multiprocessing runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from ..chain.transaction import Transaction
from ..clients.base import ContractClient
from ..crypto.addresses import Address
from ..obs import runtime as _obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..api.spec import SimulationSpec
    from ..workloads.base import SimulationContext
    from ..net.peer import Peer

__all__ = ["AdversaryTarget", "Adversary"]


@dataclass(frozen=True)
class AdversaryTarget:
    """What the adversary is attacking: the watched contract and its selectors.

    Built by the engine from the workload's semantic-mining config (or its
    HMS targets), so the same strategy attacks whichever contract the
    workload drives — the Sereth exchange, the ticket sale, the auction.
    """

    contract_address: Address
    set_selector: Optional[bytes] = None
    buy_selectors: Tuple[bytes, ...] = ()

    def is_buy(self, transaction: Transaction) -> bool:
        """Whether ``transaction`` is a victim-side buy on the watched contract."""
        return (
            transaction.to == self.contract_address
            and transaction.selector in self.buy_selectors
        )


class Adversary:
    """Base class for pluggable attack strategies.

    Lifecycle, as driven by :class:`repro.api.engine.SimulationHandle`:

    1. the engine constructs the strategy from the spec's ``adversaries``
       entry and assigns it an index (``assign_index``);
    2. ``account_labels`` names the accounts funded in genesis;
    3. ``bind`` attaches the adversary to its own Sereth peer, the workload's
       target, and a seeded RNG; ``on_bound`` lets strategies that subvert
       infrastructure (miners, data services) install themselves;
    4. ``start`` begins the observation loop: each tick delivers newly
       imported blocks (``on_block``), newly seen pending transactions
       (``on_pending_tx``), and a heartbeat (``on_tick``);
    5. after the run, ``report`` digests the attack into metrics.
    """

    name: str = ""
    poll_interval: float = 0.25
    """Seconds of simulated time between observation sweeps."""

    def __init__(self, spec: "SimulationSpec") -> None:
        self.spec = spec
        self.index = 0
        self.context: Optional["SimulationContext"] = None
        self.peer: Optional["Peer"] = None
        self.target: Optional[AdversaryTarget] = None
        self.rng: random.Random = random.Random(0)
        self.client: Optional[ContractClient] = None
        self.attempts = 0
        self.trace: List[Dict[str, Any]] = []
        self._running = False
        self._seen_pending: set = set()
        self._observed_height = 0

    # -- identity / wiring -------------------------------------------------------------

    def assign_index(self, index: int) -> None:
        """Engine-assigned position among the spec's adversaries (for labels)."""
        self.index = index

    @property
    def account_label(self) -> str:
        """The label of the adversary's funded account."""
        return f"adversary-{self.index}/{self.name}"

    def account_labels(self) -> Sequence[str]:
        """Labels of externally-owned accounts to fund in genesis."""
        return [self.account_label]

    def bind(
        self,
        context: "SimulationContext",
        peer: "Peer",
        target: Optional[AdversaryTarget],
        rng: random.Random,
    ) -> None:
        """Attach the strategy to its peer, target, and RNG stream."""
        self.context = context
        self.peer = peer
        self.target = target
        self.rng = rng
        self.client = ContractClient(self.account_label, peer, context.simulator)
        self._observed_height = peer.chain.height
        self.on_bound()

    # -- observation loop --------------------------------------------------------------

    def start(self) -> None:
        """Begin the observation loop (first sweep one poll interval from now)."""
        if self._running:
            return
        self._running = True
        self.context.simulator.schedule_in(self.poll_interval, self._sweep)

    def stop(self) -> None:
        self._running = False

    def _sweep(self) -> None:
        if not self._running:
            return
        chain = self.peer.chain
        while self._observed_height < chain.height:
            self._observed_height += 1
            self.on_block(chain.block_by_number(self._observed_height))
        own_address = self.client.address if self.client is not None else None
        for transaction, arrival_time in self.peer.pool.transactions_with_arrival():
            if transaction.hash in self._seen_pending:
                continue
            self._seen_pending.add(transaction.hash)
            if transaction.sender == own_address:
                continue
            self.on_pending_tx(transaction, arrival_time)
        self.on_tick(self.context.simulator.now)
        self.context.simulator.schedule_in(self.poll_interval, self._sweep)

    # -- strategy hooks ----------------------------------------------------------------

    def on_bound(self) -> None:
        """Called once wiring is complete (subvert miners / data services here)."""

    def on_pending_tx(self, transaction: Transaction, arrival_time: float) -> None:
        """A transaction newly observed in the adversary peer's pending pool."""

    def on_block(self, block) -> None:
        """A block newly imported by the adversary's peer."""

    def on_tick(self, now: float) -> None:
        """Periodic heartbeat at ``poll_interval``."""

    # -- bookkeeping -------------------------------------------------------------------

    def record_attack(self, kind: str, **details: Any) -> None:
        """Count one attack action and append it to the deterministic trace."""
        self.attempts += 1
        event = {"time": round(self.context.simulator.now, 6), "kind": kind}
        event.update(details)
        self.trace.append(event)
        tracer = _obs.TRACER
        if tracer is not None:
            tracer.event("adversary.attack", adversary=self.name, attack=kind, details=details)

    def attack_outcomes(self, chain) -> Tuple[int, int]:
        """(committed, succeeded) counts over the attack transactions sent."""
        committed = succeeded = 0
        if self.client is None:
            return 0, 0
        for transaction in self.client.sent_transactions:
            receipt = chain.receipt_for(transaction.hash)
            if receipt is None:
                continue
            committed += 1
            if receipt.success:
                succeeded += 1
        return committed, succeeded

    # -- metrics -----------------------------------------------------------------------

    def profit(self, context: "SimulationContext") -> float:
        """Strategy-defined value extracted (documented per strategy); 0 by default."""
        return 0.0

    def strategy_metrics(self, context: "SimulationContext") -> Dict[str, Any]:
        """Extra metrics merged into (and allowed to override) the base report."""
        return {}

    def report(self, context: "SimulationContext", victim_label: Optional[str]) -> Dict[str, Any]:
        """The per-adversary digest the engine attaches to the result summary.

        ``victim_harm`` counts watched victim transactions that did *not*
        fill at the terms the victim observed — rejected, overpaid, or never
        committed — which is the quantity the paper's Section V-B claim says
        mark-bound offers drive to zero under HMS.
        """
        chain = context.reference_chain
        attacks_committed, successes = self.attack_outcomes(chain)
        metrics = context.metrics
        victim_submitted = metrics.watched_count(victim_label) if victim_label else 0
        victim_filled = metrics.successful_count(victim_label) if victim_label else 0
        digest: Dict[str, Any] = {
            "name": self.name,
            "attempts": self.attempts,
            "attacks_committed": attacks_committed,
            "successes": successes,
            "profit": self.profit(context),
            "victim_submitted": victim_submitted,
            "victim_filled": victim_filled,
            "victim_harm": victim_submitted - victim_filled,
            "trace": list(self.trace),
        }
        digest.update(self.strategy_metrics(context))
        return digest
