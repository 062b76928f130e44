"""Block assembly: turning a TxPool snapshot into a published block.

The miner takes its peer's pool, asks an ordering policy for the block
order, truncates to the block gas limit / transaction cap, executes the
transactions on top of its local head (via ``Blockchain.build_block``), and
returns the block for publication.  Whether the resulting block is full of
*successful* transactions depends entirely on the ordering policy and on how
fresh the clients' reads were — which is the experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import List, Optional, Tuple

from ..chain.block import Block
from ..chain.chain import Blockchain
from ..chain.state import WorldState
from ..chain.transaction import Transaction
from ..crypto.addresses import Address
from ..obs import runtime as _obs
from ..txpool.pool import TxPool
from .policies import FeeArrivalPolicy, OrderingPolicy

__all__ = ["MinerConfig", "Miner"]


@dataclass
class MinerConfig:
    """Limits applied when assembling a block."""

    gas_limit: int = 8_000_000
    max_transactions: Optional[int] = None
    difficulty: int = 1


class Miner:
    """Assembles blocks for one miner address using a pluggable policy."""

    def __init__(
        self,
        address: Address,
        chain: Blockchain,
        pool: TxPool,
        policy: Optional[OrderingPolicy] = None,
        config: Optional[MinerConfig] = None,
    ) -> None:
        self.address = address
        self.chain = chain
        self.pool = pool
        self.policy = policy or FeeArrivalPolicy()
        self.config = config or MinerConfig()
        self.blocks_mined = 0

    def select_transactions(self, timestamp: float) -> List[Transaction]:
        """Pick and order transactions for the next block."""
        state = self.chain.state
        executable = self.pool.executable_by_sender(state)
        if not executable:
            return []  # policies are not consulted for an empty block
        ordered = self.policy.order(executable, state, timestamp)
        return self._truncate(ordered)

    def _truncate(self, ordered: List[Transaction]) -> List[Transaction]:
        """Apply the gas limit and transaction-count cap.

        Dropping a transaction also drops the rest of that sender's run so
        the per-sender nonce sequence never has a gap inside the block.
        """
        selected: List[Transaction] = []
        excluded_senders = set()
        gas_budget = self.config.gas_limit
        for transaction in ordered:
            if transaction.sender in excluded_senders:
                continue
            if self.config.max_transactions is not None and len(selected) >= self.config.max_transactions:
                break
            if transaction.gas_limit > gas_budget:
                excluded_senders.add(transaction.sender)
                continue
            gas_budget -= transaction.gas_limit
            selected.append(transaction)
        return selected

    def produce_block(self, timestamp: float, nonce: int = 0) -> Tuple[Block, WorldState]:
        """Assemble, execute, and seal the next block (not yet imported)."""
        tracer = _obs.TRACER
        start = perf_counter() if tracer is not None else 0.0
        transactions = self.select_transactions(timestamp)
        block, post_state = self.chain.build_block(
            transactions,
            miner=self.address,
            timestamp=timestamp,
            difficulty=self.config.difficulty,
            nonce=nonce,
            extra_data=self.policy.name.encode("ascii"),
        )
        self.blocks_mined += 1
        if tracer is not None:
            tracer.phase("mine", start)
        return block, post_state
