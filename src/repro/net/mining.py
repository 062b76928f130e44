"""The block production process: who mines the next block and when.

Proof-of-work is modelled as a race whose winner is drawn with probability
proportional to hash power and whose interval follows the configured block
interval model.  The winning miner assembles a block from *its own* pool
(with its own ordering policy — this is where semantic mining plugs in) and
broadcasts it; every peer validates by replay before importing.

Forks are not modelled: exactly one winner is drawn per interval, which is
equivalent to a network whose block propagation is fast relative to the
block interval (true of the paper's private testbed).
"""

from __future__ import annotations

import random
from bisect import bisect
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, MutableSequence, Optional, Sequence, Tuple

from ..chain.block import Block
from ..consensus.interval import BlockIntervalModel, PoissonInterval
from ..consensus.miner import Miner, MinerConfig
from ..consensus.policies import FeeArrivalPolicy, OrderingPolicy
from ..crypto.addresses import Address, address_from_label
from ..obs import runtime as _obs
from .network import Network
from .peer import Peer
from .sim import Simulator

__all__ = ["MinerHandle", "BlockProductionProcess"]


@dataclass
class MinerHandle:
    """One mining peer participating in block production."""

    peer: Peer
    miner: Miner
    hash_power: float = 1.0

    @property
    def policy_name(self) -> str:
        return self.miner.policy.name


class BlockProductionProcess:
    """Drives block production on the shared simulator."""

    def __init__(
        self,
        simulator: Simulator,
        network: Network,
        interval_model: Optional[BlockIntervalModel] = None,
        seed: int = 0,
        history_limit: Optional[int] = None,
    ) -> None:
        if history_limit is not None and history_limit < 1:
            raise ValueError("history_limit must be at least 1 block")
        self.simulator = simulator
        self.network = network
        self.interval_model = interval_model or PoissonInterval(seed=seed)
        self._rng = random.Random(seed)
        self._miners: List[MinerHandle] = []
        self._cumulative_power: List[float] = []
        self._running = False
        self.blocks_produced = 0
        # The log pins every produced block (and with it the wire bytes the
        # block holds), so bounded-memory runs window it to the newest
        # ``history_limit`` entries; the default keeps the full run.
        self.block_log: MutableSequence[Tuple[float, str, Block]] = (
            deque(maxlen=history_limit) if history_limit is not None else []
        )
        self.on_block: Optional[Callable[[Block, MinerHandle], None]] = None

    # -- configuration -----------------------------------------------------------------

    def register_miner(
        self,
        peer: Peer,
        policy: Optional[OrderingPolicy] = None,
        miner_address: Optional[Address] = None,
        hash_power: float = 1.0,
        config: Optional[MinerConfig] = None,
    ) -> MinerHandle:
        """Make ``peer`` a miner with the given ordering policy and hash power."""
        if hash_power <= 0:
            raise ValueError("hash power must be positive")
        address = miner_address or address_from_label(f"miner/{peer.peer_id}")
        miner = Miner(
            address=address,
            chain=peer.chain,
            pool=peer.pool,
            policy=policy or FeeArrivalPolicy(),
            config=config,
        )
        handle = MinerHandle(peer=peer, miner=miner, hash_power=hash_power)
        self._miners.append(handle)
        power_so_far = self._cumulative_power[-1] if self._cumulative_power else 0
        self._cumulative_power.append(power_so_far + hash_power)
        return handle

    def miners(self) -> List[MinerHandle]:
        return list(self._miners)

    # -- production loop -----------------------------------------------------------------

    def start(self) -> None:
        """Begin producing blocks; the first arrives one interval from now."""
        if not self._miners:
            raise ValueError("no miners registered")
        if self._running:
            return
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        self._running = False

    def _schedule_next(self) -> None:
        if not self._running:
            return
        delay = self.interval_model.next_interval()
        self.simulator.schedule_in(delay, self._produce)

    def _pick_winner(self) -> MinerHandle:
        """Draw the winner with probability proportional to hash power — the
        arithmetic of ``random.choices(miners, weights=...)`` (one
        ``random()`` draw bisected into the running totals), with the totals
        kept from :meth:`register_miner` instead of re-summed per block."""
        cumulative = self._cumulative_power
        point = self._rng.random() * (cumulative[-1] + 0.0)
        return self._miners[bisect(cumulative, point, 0, len(cumulative) - 1)]

    def _produce(self) -> None:
        if not self._running:
            return
        winner = self._pick_winner()
        timestamp = self.simulator.now
        block, _ = winner.miner.produce_block(timestamp=timestamp, nonce=self.blocks_produced)
        self.blocks_produced += 1
        tracer = _obs.TRACER
        if tracer is not None:
            tracer.event(
                "block.build",
                peer=winner.peer.peer_id,
                block=block.hash,
                number=block.number,
                txs=len(block.transactions),
                policy=winner.policy_name,
            )
            for position, transaction in enumerate(block.transactions):
                tracer.event(
                    "tx.include",
                    peer=winner.peer.peer_id,
                    tx=transaction.hash,
                    block=block.hash,
                    number=block.number,
                    position=position,
                )
        self.block_log.append((timestamp, winner.peer.peer_id, block))
        self.network.broadcast_block(winner.peer, block)
        if self.on_block is not None:
            self.on_block(block, winner)
        self._schedule_next()
