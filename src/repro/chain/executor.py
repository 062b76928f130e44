"""Execution interface between the chain layer and the contract engine.

The blockchain applies transactions through a :class:`TransactionExecutor`,
which returns each transaction's sealed :class:`~repro.chain.receipt.Receipt`,
built once and already stamped with its block position.  The concrete
executor lives in :mod:`repro.evm.engine`.  Keeping the interface here avoids
a circular dependency and lets tests substitute simpler executors when
contract semantics are not under test.
"""

from __future__ import annotations

from typing import Protocol

from ..crypto.addresses import Address, ZERO_ADDRESS
from ..record import record
from .receipt import Receipt
from .state import WorldState
from .transaction import Transaction

__all__ = ["BlockContext", "TransactionExecutor"]


@record
class BlockContext:
    """Block-level execution environment visible to contracts."""

    number: int
    timestamp: float
    miner: Address = ZERO_ADDRESS
    gas_limit: int = 8_000_000
    difficulty: int = 1


class TransactionExecutor(Protocol):
    """Anything that can apply a transaction to a world state."""

    def execute(
        self, state: WorldState, transaction: Transaction, block: BlockContext, index: int
    ) -> Receipt:
        """Apply ``transaction`` (``index`` in ``block``); return its stamped receipt.

        Implementations must leave ``state`` unchanged (other than nonce and
        gas payment) when the transaction fails, and must never raise for a
        transaction that is structurally valid: failures are reported in the
        receipt so the transaction is still *included* in the block.
        """
        ...
