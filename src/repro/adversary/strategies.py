"""The shipped attack strategies, one per row of the attack matrix.

Each strategy probes a different part of the paper's threat surface:

* :class:`DisplacementAdversary` (``displacement``) — the classic
  frontrunner of Section II-F: race every pending victim buy with a
  price-raising ``set`` at a higher gas price, hoping the miner orders the
  rise ahead of the buy.
* :class:`InsertionAdversary` (``insertion``) — the sandwich: copy the
  victim's buy at a higher gas price (front leg), then raise the price just
  behind it (back leg), extracting the spread.
* :class:`SuppressionAdversary` (``suppression``) — fee-bump spam: flood
  the pool with high-gas-price filler so the victim's transaction misses the
  next block(s) and its observed terms go stale.
* :class:`CensoringMinerAdversary` (``censoring_miner``) — adversarial
  miner privilege: a controlled fraction of hash power simply refuses to
  include victim buys (:class:`~repro.consensus.policies.CensoringPolicy`).
* :class:`StaleOracleAdversary` (``stale_oracle``) — a poisoned data
  service: victims' RAA reads are answered with a delayed view of the pool,
  widening the read-latency window the paper's attacks exploit.

:class:`FrontrunningAttacker`, the hard-coded attacker the ``frontrunning``
workload wires in, lives here too.  It predates the
:class:`~repro.adversary.base.Adversary` lifecycle and is kept behaviourally
identical, so the ``frontrunning`` experiment's seeded runs do not change.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from ..clients.base import ContractClient
from ..consensus.policies import CensoringPolicy
from ..core.hms.fpv import SUCCESS_FLAG, fpv_from_calldata
from ..crypto.addresses import Address
from ..encoding.hexutil import int_from_bytes32, to_bytes32
from ..evm.raa_interface import RAARequest
from ..chain.transaction import Transaction
from .base import Adversary
from .registry import register_adversary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..workloads.base import SimulationContext

__all__ = [
    "VICTIM_BUY_LABEL",
    "FrontrunningAttacker",
    "DisplacementAdversary",
    "InsertionAdversary",
    "SuppressionAdversary",
    "CensoringMinerAdversary",
    "StaleOracleAdversary",
]

VICTIM_BUY_LABEL = "victim-buy"


def _set_calldata(set_selector: bytes, flag: bytes, mark: bytes, value: int) -> bytes:
    """Build ``selector || flag || mark || value`` calldata for a marked set.

    Matches the ABI encoding of a ``bytes32[3]`` argument (Section III-C:
    "each element is stored in a contiguous 32 bytes within input"), so it
    works against any contract following the Sereth calldata convention.
    """
    return set_selector + to_bytes32(flag) + to_bytes32(mark) + to_bytes32(value)


# ======================================================================================
# the legacy frontrunner (the ``frontrunning`` workload's hard-coded attacker)
# ======================================================================================


class FrontrunningAttacker(ContractClient):
    """Watches its peer's pool for victim buys and races them with price rises."""

    def __init__(self, label, peer, simulator, contract_address, markup, poll_interval=0.25):
        super().__init__(label, peer, simulator)
        self.contract_address = contract_address
        self.markup = markup
        self.poll_interval = poll_interval
        self.attacks_launched = 0
        self._seen_buys: set = set()
        self._running = False

    def start(self) -> None:
        self._running = True
        self.simulator.schedule_in(self.poll_interval, self._poll)

    def stop(self) -> None:
        self._running = False

    def _poll(self) -> None:
        if not self._running:
            return
        # Imported lazily: the selectors live with the contract, and this
        # module must stay importable before repro.api finishes loading.
        from ..contracts.sereth import BUY_SELECTOR

        for transaction, _arrival in self.peer.pool.transactions_with_arrival():
            if transaction.to != self.contract_address or transaction.selector != BUY_SELECTOR:
                continue
            if transaction.hash in self._seen_buys or transaction.sender == self.address:
                continue
            self._seen_buys.add(transaction.hash)
            self._attack(transaction)
        self.simulator.schedule_in(self.poll_interval, self._poll)

    def _attack(self, victim_buy) -> None:
        """Submit a price rise intended to land ahead of the victim's buy.

        The attacker is not the contract owner in spirit, but the contract
        accepts sets from anyone who knows the current mark — which the
        attacker, running a Sereth peer, can read from its own HMS view.
        """
        from ..contracts.sereth import SET_SELECTOR

        provider = self.peer.hms_provider(self.contract_address)
        if provider is None:
            return
        view = provider.view()
        observed_price = int_from_bytes32(victim_buy.data[4 + 64 : 4 + 96])
        new_price = observed_price + self.markup
        self.send_transaction(
            to=self.contract_address,
            data=_set_calldata(SET_SELECTOR, SUCCESS_FLAG, view.mark, new_price),
        )
        self.attacks_launched += 1


# ======================================================================================
# displacement — race every victim buy with a price rise
# ======================================================================================


@register_adversary("displacement")
class DisplacementAdversary(Adversary):
    """Front-run victim buys with price-raising sets (Section II-F).

    ``profit`` is the markup extracted per successful displacing set —
    the price inflation the attacker managed to commit on the market.
    """

    name = "displacement"

    def __init__(self, spec, markup: int = 25, gas_price: int = 2) -> None:
        super().__init__(spec)
        if markup <= 0:
            raise ValueError("markup must be positive")
        if gas_price <= 0:
            raise ValueError("gas_price must be positive")
        self.markup = markup
        self.gas_price = gas_price

    def on_bound(self) -> None:
        self.client.gas_price = self.gas_price

    def on_pending_tx(self, transaction: Transaction, arrival_time: float) -> None:
        target = self.target
        if target is None or target.set_selector is None or not target.is_buy(transaction):
            return
        provider = self.peer.hms_provider(target.contract_address)
        if provider is None:
            return
        view = provider.view()
        try:
            observed_price = int_from_bytes32(fpv_from_calldata(transaction.data).value)
        except ValueError:
            return
        new_price = observed_price + self.markup
        self.client.send_transaction(
            to=target.contract_address,
            data=_set_calldata(
                target.set_selector, view.flag_for_next, view.mark, new_price
            ),
        )
        self.record_attack(
            "displace",
            victim="0x" + transaction.hash.hex(),
            new_price=new_price,
        )

    def profit(self, context: "SimulationContext") -> float:
        _committed, succeeded = self.attack_outcomes(context.reference_chain)
        return float(self.markup * succeeded)


# ======================================================================================
# insertion — sandwich the victim between a copied buy and a price rise
# ======================================================================================


@register_adversary("insertion")
class InsertionAdversary(Adversary):
    """Sandwich attack: buy at the victim's terms first, reprice just after.

    The front leg copies the victim's offer verbatim at a higher gas price
    (landing first under fee ordering); the back leg raises the price behind
    it at a lower gas price.  ``profit`` is the spread per sandwich whose
    front leg committed successfully.
    """

    name = "insertion"

    def __init__(
        self, spec, markup: int = 25, front_gas_price: int = 3, back_gas_price: int = 1
    ) -> None:
        super().__init__(spec)
        if markup <= 0:
            raise ValueError("markup must be positive")
        if front_gas_price <= back_gas_price:
            raise ValueError("front leg must outbid the back leg")
        self.markup = markup
        self.front_gas_price = front_gas_price
        self.back_gas_price = back_gas_price
        self._front_legs: List[bytes] = []

    def on_pending_tx(self, transaction: Transaction, arrival_time: float) -> None:
        target = self.target
        if target is None or target.set_selector is None or not target.is_buy(transaction):
            return
        provider = self.peer.hms_provider(target.contract_address)
        if provider is None:
            return
        try:
            observed_price = int_from_bytes32(fpv_from_calldata(transaction.data).value)
        except ValueError:
            return
        # Front leg: the same offer the victim made, at a gas price that
        # sorts ahead of it under fee ordering.
        self.client.gas_price = self.front_gas_price
        front = self.client.send_transaction(
            to=target.contract_address, data=transaction.data
        )
        self._front_legs.append(front.hash)
        # Back leg: reprice behind the sandwich, chained onto the HMS view.
        view = provider.view()
        self.client.gas_price = self.back_gas_price
        self.client.send_transaction(
            to=target.contract_address,
            data=_set_calldata(
                target.set_selector,
                view.flag_for_next,
                view.mark,
                observed_price + self.markup,
            ),
        )
        self.record_attack(
            "sandwich",
            victim="0x" + transaction.hash.hex(),
            front_price=observed_price,
        )

    def _filled_front_legs(self, chain) -> int:
        return sum(
            1
            for front_hash in self._front_legs
            if (receipt := chain.receipt_for(front_hash)) is not None and receipt.success
        )

    def profit(self, context: "SimulationContext") -> float:
        return float(self.markup * self._filled_front_legs(context.reference_chain))

    def strategy_metrics(self, context: "SimulationContext") -> Dict[str, Any]:
        # ``successes`` = sandwiches whose front leg filled, so the column
        # stays comparable to ``attempts`` (one per sandwich) even though
        # each attack submits two transactions.
        filled = self._filled_front_legs(context.reference_chain)
        return {"successes": filled, "front_legs_filled": filled}


# ======================================================================================
# suppression — fee-bump spam that delays victim inclusion
# ======================================================================================


@register_adversary("suppression")
class SuppressionAdversary(Adversary):
    """Crowd victims out of the next block with bursts of high-fee filler.

    Each observed victim buy triggers ``burst`` self-transfers at
    ``gas_price`` (far above the victims' price of 1), which fee-ordering
    miners place first.  When block capacity binds, the victim's buy slips
    to a later block and its observed terms go stale — a pure griefing
    attack, so ``profit`` stays 0; the damage shows up as victim harm.
    """

    name = "suppression"

    def __init__(
        self, spec, burst: int = 8, gas_price: int = 10, max_bursts: Optional[int] = None
    ) -> None:
        super().__init__(spec)
        if burst <= 0:
            raise ValueError("burst must be positive")
        if gas_price <= 1:
            raise ValueError("suppression needs a gas price above the victims'")
        if max_bursts is not None and max_bursts <= 0:
            raise ValueError("max_bursts must be positive when given")
        self.burst = burst
        self.gas_price = gas_price
        self.max_bursts = max_bursts
        self._bursts = 0
        self._burst_hashes: List[List[bytes]] = []

    def on_bound(self) -> None:
        self.client.gas_price = self.gas_price

    def on_pending_tx(self, transaction: Transaction, arrival_time: float) -> None:
        target = self.target
        if target is None or not target.is_buy(transaction):
            return
        if self.max_bursts is not None and self._bursts >= self.max_bursts:
            return
        self._bursts += 1
        self._burst_hashes.append(
            [self.client.send_transaction(to=self.client.address).hash for _ in range(self.burst)]
        )
        self.record_attack(
            "suppress",
            victim="0x" + transaction.hash.hex(),
            burst=self.burst,
        )

    def strategy_metrics(self, context: "SimulationContext") -> Dict[str, Any]:
        # ``successes`` = bursts whose filler all committed (the flood landed
        # as planned), keeping the column comparable to ``attempts`` (one per
        # burst) instead of counting every filler transfer.
        chain = context.reference_chain
        landed = sum(
            1
            for hashes in self._burst_hashes
            if all(
                (receipt := chain.receipt_for(tx_hash)) is not None and receipt.success
                for tx_hash in hashes
            )
        )
        return {"successes": landed, "filler_submitted": self._bursts * self.burst}


# ======================================================================================
# censoring miner — adversarial miner privilege drops victim buys
# ======================================================================================


@register_adversary("censoring_miner")
class CensoringMinerAdversary(Adversary):
    """Control a slice of hash power that refuses to include victim buys.

    Wraps the ordering policies of the first ``miners_controlled`` miners in
    a :class:`~repro.consensus.policies.CensoringPolicy` that drops every
    buy on the watched contract not sent by the adversary itself.  Mark-bound
    offers do not defend against censorship — only honest hash power does —
    so this row of the matrix shows harm scaling with the censoring fraction
    in every defense column.  ``attempts`` counts drop decisions (a pending
    victim buy censored again in each controlled block it misses).
    """

    name = "censoring_miner"

    def __init__(self, spec, miners_controlled: int = 1) -> None:
        super().__init__(spec)
        if miners_controlled <= 0:
            raise ValueError("miners_controlled must be positive")
        self.miners_controlled = miners_controlled
        self._wrapped: List[CensoringPolicy] = []

    def on_bound(self) -> None:
        target = self.target
        production = getattr(self.context, "production", None)
        if target is None or production is None:
            return
        own_address = self.client.address

        def should_censor(transaction: Transaction) -> bool:
            return target.is_buy(transaction) and transaction.sender != own_address

        for handle in production.miners()[: self.miners_controlled]:
            policy = CensoringPolicy(
                handle.miner.policy, should_censor, on_censor=self._note_censor
            )
            handle.miner.policy = policy
            self._wrapped.append(policy)

    def _note_censor(self, transaction: Transaction, timestamp: float) -> None:
        self.record_attack("censor", victim="0x" + transaction.hash.hex())

    def strategy_metrics(self, context: "SimulationContext") -> Dict[str, Any]:
        return {
            "miners_controlled": len(self._wrapped),
            "censor_decisions": sum(policy.censored_count for policy in self._wrapped),
        }


# ======================================================================================
# stale oracle — poison the victims' data service with delayed views
# ======================================================================================


class _StaleViewProxy:
    """An RAA provider that answers with the HMS view from ``delay`` seconds ago."""

    def __init__(self, inner, delay: float) -> None:
        self.inner = inner
        self.delay = delay
        self._snapshots: List[Tuple[float, List[bytes]]] = []
        self.reads_served = 0
        self.stale_served = 0

    def snapshot(self, now: float) -> None:
        """Record the live view; called from the adversary's tick loop."""
        self._snapshots.append((now, self.inner.view().amv.words()))
        # Keep one snapshot older than the delay horizon so lookups always hit.
        horizon = now - self.delay
        while len(self._snapshots) > 1 and self._snapshots[1][0] <= horizon:
            self._snapshots.pop(0)

    def _delayed_words(self, now: float) -> Optional[List[bytes]]:
        horizon = now - self.delay
        chosen: Optional[List[bytes]] = None
        for taken_at, words in self._snapshots:
            if taken_at <= horizon:
                chosen = words
            else:
                break
        if chosen is None and self._snapshots:
            # Nothing old enough yet: serve the oldest thing we have.
            chosen = self._snapshots[0][1]
        return chosen

    def provide(self, request: RAARequest) -> Optional[List[object]]:
        if request.contract_address != self.inner.config.contract_address:
            return None
        words = self._delayed_words(request.block.timestamp)
        if words is None:
            # No snapshot yet (first poll interval): fall through to the
            # live provider rather than inventing an answer.
            return self.inner.provide(request)
        self.reads_served += 1
        augmented = list(request.arguments)
        for index in request.augmentable_indices:
            if 0 <= index < len(augmented):
                augmented[index] = list(words)
        # Staleness is judged against the freshest snapshot (taken at most a
        # poll interval ago) — cheaper than recomputing the live view per read.
        if self._snapshots and words != self._snapshots[-1][1]:
            self.stale_served += 1
        return augmented


@register_adversary("stale_oracle")
class StaleOracleAdversary(Adversary):
    """Feed victims delayed prices to widen the read-latency window (II-D).

    Interposes on every victim peer's RAA data service so ``mark``/``get``
    reads answer with the pool view from ``delay`` seconds ago.  Victims
    acting on the stale view bind their offers to superseded marks, which
    mark-bound offers convert into rejections rather than overpayments —
    the structural claim of Section V-B, now probed from the data-service
    side.  Inert against the committed-read baseline (there is no RAA
    service to poison), which the matrix reports honestly as zero attempts.
    """

    name = "stale_oracle"

    def __init__(self, spec, delay: float = 20.0) -> None:
        super().__init__(spec)
        if delay <= 0:
            raise ValueError("delay must be positive")
        self.delay = delay
        self._proxies: List[_StaleViewProxy] = []

    def on_bound(self) -> None:
        target = self.target
        if target is None:
            return
        for peer in self.context.client_peers:
            provider = peer.hms_provider(target.contract_address)
            if provider is None:
                continue
            proxy = _StaleViewProxy(provider, self.delay)
            peer.override_raa_provider(target.contract_address, proxy)
            self._proxies.append(proxy)

    def on_tick(self, now: float) -> None:
        for proxy in self._proxies:
            proxy.snapshot(now)

    def strategy_metrics(self, context: "SimulationContext") -> Dict[str, Any]:
        reads = sum(proxy.reads_served for proxy in self._proxies)
        stale = sum(proxy.stale_served for proxy in self._proxies)
        return {
            "attempts": reads,
            "successes": stale,
            "peers_poisoned": len(self._proxies),
            "stale_reads_served": stale,
        }
