"""The TxPool: each peer's view of pending (unprocessed) transactions.

The pool is the "underutilized communication channel" HMS exploits
(Section III-C).  It stores pending transactions with the local arrival
time, groups them per sender in nonce order (the ordering miners must
respect), and drops transactions once they are committed in a published
block or made stale by an advancing account nonce.

``TxPool.version`` counts the pool's mutations (an admitted add, a
same-nonce replacement, a removal that found its entry, ``clear``): two
reads that see the same version saw the same pending set in the same
order, which is what lets the HMS view built over the pool be reused
instead of rebuilt.  A rejected add leaves it untouched.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..chain.block import Block
from ..chain.state import WorldState
from ..chain.transaction import Transaction
from ..crypto.addresses import Address
from ..obs import runtime as _obs

__all__ = ["PoolEntry", "TxPool"]


@dataclass(frozen=True)
class PoolEntry:
    """A pending transaction plus local bookkeeping."""

    transaction: Transaction
    arrival_time: float

    @property
    def hash(self) -> bytes:
        return self.transaction.hash

    @property
    def sender(self) -> Address:
        return self.transaction.sender

    @property
    def nonce(self) -> int:
        return self.transaction.nonce


class TxPool:
    """A per-peer pending-transaction pool."""

    def __init__(self, max_size: Optional[int] = None, owner: str = "") -> None:
        self._entries: Dict[bytes, PoolEntry] = {}
        self._by_sender: Dict[Address, Dict[int, PoolEntry]] = {}
        # Arrival order, maintained sorted by (arrival_time, hash): HMS views
        # read this list directly instead of re-sorting the pool every call.
        self._order: List[Tuple[float, bytes]] = []
        self.max_size = max_size
        self.owner = owner
        """The peer this pool belongs to — purely observability metadata
        (it labels this pool's trace events); empty for standalone pools."""
        self.dropped_count = 0
        self.version = 0
        """Bumped on every mutation of the pending set; never decreases."""

    # -- insertion --------------------------------------------------------------

    def add(self, transaction: Transaction, arrival_time: float) -> bool:
        """Add a transaction; returns False if it was already known or dropped.

        A replacement transaction (same sender and nonce) supersedes the old
        one, mirroring gas-price replacement in real pools.  A replacement
        never grows the pool, so it is admitted even when the pool is at
        ``max_size``; the capacity gate only applies to genuinely new slots.
        """
        if transaction.hash in self._entries:
            return False
        sender_entries = self._by_sender.get(transaction.sender)
        existing = sender_entries.get(transaction.nonce) if sender_entries else None
        if existing is not None and existing.transaction.gas_price >= transaction.gas_price:
            return False
        if existing is None and self.max_size is not None and len(self._entries) >= self.max_size:
            self.dropped_count += 1
            tracer = _obs.TRACER
            if tracer is not None:
                tracer.event(
                    "pool.evict",
                    peer=self.owner,
                    reason="full",
                    tx=transaction.hash,
                    pool_size=len(self._entries),
                )
            return False
        entry = PoolEntry(transaction=transaction, arrival_time=arrival_time)
        if existing is not None:
            self._entries.pop(existing.hash, None)
            self._discard_order(existing)
        if sender_entries is None:
            sender_entries = self._by_sender.setdefault(transaction.sender, {})
        sender_entries[transaction.nonce] = entry
        self._entries[transaction.hash] = entry
        insort(self._order, (arrival_time, transaction.hash))
        self.version += 1
        tracer = _obs.TRACER
        if tracer is not None:
            if existing is not None:
                # The displacement story: a same-sender same-nonce bid just
                # superseded the pooled transaction.
                tracer.event(
                    "pool.replace",
                    peer=self.owner,
                    tx=transaction.hash,
                    displaced=existing.hash,
                    nonce=transaction.nonce,
                    gas_price=transaction.gas_price,
                    displaced_gas_price=existing.transaction.gas_price,
                )
            else:
                tracer.event(
                    "pool.admit",
                    peer=self.owner,
                    tx=transaction.hash,
                    nonce=transaction.nonce,
                    pool_size=len(self._entries),
                )
        return True

    def _discard_order(self, entry: PoolEntry) -> None:
        """Drop ``entry``'s (arrival_time, hash) slot from the order index."""
        slot = (entry.arrival_time, entry.hash)
        index = bisect_left(self._order, slot)
        if index < len(self._order) and self._order[index] == slot:
            del self._order[index]

    # -- lookup -----------------------------------------------------------------

    def __contains__(self, transaction_hash: object) -> bool:
        return transaction_hash in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> List[PoolEntry]:
        """All pending entries, ordered by arrival time (the concurrent history).

        The order is maintained incrementally on add/remove, so a view is a
        single pass over the index — no per-call sort.
        """
        entries = self._entries
        return [entries[transaction_hash] for _, transaction_hash in self._order]

    def transactions_with_arrival(self) -> List[Tuple[Transaction, float]]:
        """``(transaction, arrival_time)`` pairs — the shape HMS consumes."""
        entries = self._entries
        return [
            (entries[transaction_hash].transaction, arrival_time)
            for arrival_time, transaction_hash in self._order
        ]

    def transactions(self) -> List[Transaction]:
        entries = self._entries
        return [entries[transaction_hash].transaction for _, transaction_hash in self._order]

    def pending_by_sender(self) -> Dict[Address, List[PoolEntry]]:
        """Per-sender pending entries in nonce order (the miner's raw material)."""
        grouped: Dict[Address, List[PoolEntry]] = {}
        for sender, by_nonce in self._by_sender.items():
            entries = [by_nonce[nonce] for nonce in sorted(by_nonce)]
            if entries:
                grouped[sender] = entries
        return grouped

    def executable_by_sender(self, state: WorldState) -> Dict[Address, List[PoolEntry]]:
        """Per-sender entries forming a gapless nonce run starting at the
        account's current nonce; only these can be included in the next block."""
        executable: Dict[Address, List[PoolEntry]] = {}
        for sender, entries in self.pending_by_sender().items():
            next_nonce = state.get_nonce(sender)
            runnable: List[PoolEntry] = []
            for entry in entries:
                if entry.nonce == next_nonce:
                    runnable.append(entry)
                    next_nonce += 1
                elif entry.nonce > next_nonce:
                    break
            if runnable:
                executable[sender] = runnable
        return executable

    # -- removal -----------------------------------------------------------------

    def remove(self, transaction_hash: bytes) -> Optional[PoolEntry]:
        entry = self._entries.pop(transaction_hash, None)
        if entry is None:
            return None
        self.version += 1
        self._discard_order(entry)
        sender_entries = self._by_sender.get(entry.sender)
        if sender_entries is not None:
            stored = sender_entries.get(entry.nonce)
            if stored is not None and stored.hash == transaction_hash:
                del sender_entries[entry.nonce]
            if not sender_entries:
                del self._by_sender[entry.sender]
        return entry

    def remove_committed(self, block: Block) -> int:
        """Drop every transaction included in ``block``; returns how many."""
        removed = 0
        for transaction in block.transactions:
            if self.remove(transaction.hash) is not None:
                removed += 1
        return removed

    def drop_stale(self, state: WorldState) -> int:
        """Drop transactions whose nonce is already below the account nonce."""
        stale_hashes = [
            entry.hash
            for entry in self._entries.values()
            if entry.nonce < state.get_nonce(entry.sender)
        ]
        for transaction_hash in stale_hashes:
            self.remove(transaction_hash)
        if stale_hashes:
            tracer = _obs.TRACER
            if tracer is not None:
                tracer.event(
                    "pool.evict",
                    peer=self.owner,
                    reason="stale",
                    count=len(stale_hashes),
                )
        return len(stale_hashes)

    def clear(self) -> None:
        self._entries.clear()
        self._by_sender.clear()
        self._order.clear()
        self.version += 1
