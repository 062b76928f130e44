"""PROCESS — Algorithm 2: filter the TxPool for HMS transactions.

For each pending transaction we check (a) that the function signature is the
watched ``set`` selector and (b) that the first FPV word carries one of the
accepted flags (head candidate or successor).  Everything else — buys, other
contracts, malformed calldata — is skipped, which is why the paper notes the
overhead of HMS is small even for large pools.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ...chain.transaction import Transaction
from ...crypto.addresses import Address
from .fpv import FPV, compute_mark, fpv_from_calldata
from .node import TxNode

__all__ = ["HMSConfig", "classify_transaction", "process_transactions"]


@dataclass(frozen=True)
class HMSConfig:
    """Identifies which transactions HMS watches.

    ``contract_address`` — the Sereth contract whose storage variable is
    managed; ``set_selector`` — the 4-byte selector of its write function
    (Algorithm 2's ``SIGNATURE(txn) == "set"`` check).
    """

    contract_address: Address
    set_selector: bytes

    def matches(self, transaction: Transaction) -> bool:
        """True if ``transaction`` targets the watched contract and function."""
        return (
            transaction.to == self.contract_address
            and transaction.selector == self.set_selector
        )


def classify_transaction(
    transaction: Transaction, arrival_time: float, config: HMSConfig
) -> Optional[TxNode]:
    """One step of Algorithm 2: the HMS node for a pending transaction, or
    ``None`` when it is not a series member.

    A pure function of its arguments — a transaction is immutable — so a
    caller that sees the same pool entry again may keep the answer.
    Transactions whose FPV flag is neither the head flag nor the successor
    flag are "considered rejected and ... not included in the list of
    relevant transactions".
    """
    if not config.matches(transaction):
        return None
    try:
        fpv = fpv_from_calldata(transaction.data, expected_selector=config.set_selector)
    except ValueError:
        return None
    if not fpv.is_series_member:
        return None
    return TxNode(
        transaction=transaction,
        fpv=fpv,
        mark=compute_mark(fpv.previous_mark, fpv.value),
        arrival_time=arrival_time,
    )


def process_transactions(
    pool_entries: Iterable[Tuple[Transaction, float]],
    config: HMSConfig,
) -> List[TxNode]:
    """Filter pool entries into HMS nodes (Algorithm 2).

    ``pool_entries`` yields ``(transaction, arrival_time)`` pairs — the
    arrival time is simulation metadata used only for tie-breaking and
    traces, never for correctness.
    """
    classified = (
        classify_transaction(transaction, arrival_time, config)
        for transaction, arrival_time in pool_entries
    )
    return [node for node in classified if node is not None]
