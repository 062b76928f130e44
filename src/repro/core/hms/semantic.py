"""Semantic mining (Section V-C): an HMS-aware block ordering policy.

A semantic miner knows the dependency structure HMS extracts from the pool
and uses its "miner privilege" to commit the whole series in order, placing
each dependent ``buy`` immediately after the ``set`` whose mark it
references.  Buys that reference the still-committed mark are placed before
the first pending set; transactions HMS knows nothing about are appended in
fee/arrival order.  Per-sender nonce order is preserved by construction
because the final order is produced by the same head-of-queue merge the
baseline policies use.

Limitation: the merge ranks a sender's queue by its head alone, so a head
that sorts late holds back that sender's later nonces (a doomed buy of an
unknown mark keeps the buyer's committed-mark buy behind the first pending
``set``; a forked ``set`` holds back the owner's later series sets).
``tests/properties/test_semantic_brute_force.py`` pins minimal cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ...chain.state import WorldState
from ...chain.transaction import Transaction
from ...crypto.addresses import Address
from ...encoding.hexutil import bytes32_from_int
from ...txpool.pool import PoolEntry
from ...consensus.policies import merge_sender_queues
from .fpv import fpv_from_calldata
from .hash_mark_set import HashMarkSet
from .process import HMSConfig

__all__ = ["SemanticMiningConfig", "SemanticMiningPolicy"]

# Ordering groups (first element of the per-transaction sort key).
_GROUP_BUY_OF_COMMITTED = 0
_GROUP_SERIES = 1
_GROUP_UNMATCHED_SERETH = 2
_GROUP_OTHER = 3


@dataclass(frozen=True)
class SemanticMiningConfig:
    """What the semantic miner needs to know about the watched contract."""

    hms: HMSConfig
    buy_selectors: Tuple[bytes, ...] = ()
    mark_storage_slot: int = 1
    """Storage slot holding the contract's current mark (Sereth's ``p[1]``)."""


class SemanticMiningPolicy:
    """Order the block so that the HMS series and its dependents succeed."""

    name = "semantic_hms"

    def __init__(self, config: SemanticMiningConfig) -> None:
        self.config = config
        self._hms = HashMarkSet(config.hms)

    # -- OrderingPolicy interface --------------------------------------------------

    def order(
        self,
        executable: Dict[Address, List[PoolEntry]],
        state: WorldState,
        timestamp: float,
    ) -> List[Transaction]:
        entries = [entry for queue in executable.values() for entry in queue]
        keys = self._assign_keys(entries, state)

        def head_key(entry: PoolEntry) -> tuple:
            return keys[entry.hash]

        return merge_sender_queues(executable, head_key=head_key)

    # -- key assignment ---------------------------------------------------------------

    def _assign_keys(
        self, entries: Sequence[PoolEntry], state: WorldState
    ) -> Dict[bytes, tuple]:
        """Compute the (group, series position, arrival) sort key for each entry."""
        series = self._hms.serialize(
            (entry.transaction, entry.arrival_time) for entry in entries
        )
        series_position: Dict[bytes, int] = {
            node.transaction.hash: index for index, node in enumerate(series.nodes)
        }
        mark_position: Dict[bytes, int] = {
            node.mark: index for index, node in enumerate(series.nodes)
        }
        committed_mark = state.get_storage(
            self.config.hms.contract_address,
            bytes32_from_int(self.config.mark_storage_slot),
        )

        keys: Dict[bytes, tuple] = {}
        for entry in entries:
            transaction = entry.transaction
            if transaction.hash in series_position:
                position = series_position[transaction.hash]
                keys[transaction.hash] = (_GROUP_SERIES, position, 0, entry.arrival_time)
                continue
            if self._is_buy(transaction):
                referenced_mark = self._buy_mark(transaction)
                if referenced_mark == committed_mark:
                    keys[transaction.hash] = (_GROUP_BUY_OF_COMMITTED, 0, 0, entry.arrival_time)
                elif referenced_mark is not None and referenced_mark in mark_position:
                    position = mark_position[referenced_mark]
                    # Dependent buys sort just after their set (same position,
                    # higher minor index).
                    keys[transaction.hash] = (_GROUP_SERIES, position, 1, entry.arrival_time)
                else:
                    keys[transaction.hash] = (
                        _GROUP_UNMATCHED_SERETH, 0, 0, entry.arrival_time,
                    )
                continue
            if self.config.hms.matches(transaction):
                # A set that did not make the longest branch (orphaned fork).
                keys[transaction.hash] = (_GROUP_UNMATCHED_SERETH, 0, 0, entry.arrival_time)
                continue
            keys[transaction.hash] = (
                _GROUP_OTHER,
                -transaction.gas_price,
                0,
                entry.arrival_time,
            )
        return keys

    # -- helpers ---------------------------------------------------------------------

    def _is_buy(self, transaction: Transaction) -> bool:
        return (
            transaction.to == self.config.hms.contract_address
            and transaction.selector in self.config.buy_selectors
        )

    def _buy_mark(self, transaction: Transaction) -> Optional[bytes]:
        """The mark a buy's offer references (offer[1]), or None if malformed."""
        try:
            offer = fpv_from_calldata(transaction.data)
        except ValueError:
            return None
        return offer.previous_mark
