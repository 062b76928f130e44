"""Miner ordering policies — "miner privilege" (Section II-C).

Miners have complete discretion over which pending transactions enter a
block and in what order, with one hard rule: transactions from the same
address must appear in nonce order.  The policies here model the behaviours
the paper discusses:

* :class:`FeeArrivalPolicy` — the Geth-like default: highest gas price
  first, earliest local arrival as the tie-break, nonce order per sender.
* :class:`FifoPolicy` — pure local-arrival order (an idealised fair miner).
* :class:`RandomPolicy` — arbitrary order, the adversarial end of miner
  privilege.
* the HMS-aware *semantic mining* policy lives with the paper's
  contribution in :mod:`repro.core.hms.semantic`.

All policies operate on the *executable* per-sender nonce runs produced by
:meth:`repro.txpool.pool.TxPool.executable_by_sender` and perform a
priority merge across senders, so the nonce invariant holds by construction.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Protocol, Sequence

from ..chain.state import WorldState
from ..chain.transaction import Transaction
from ..crypto.addresses import Address
from ..txpool.pool import PoolEntry

__all__ = [
    "OrderingPolicy",
    "merge_sender_queues",
    "FeeArrivalPolicy",
    "FifoPolicy",
    "RandomPolicy",
    "ArrivalJitterPolicy",
    "CensoringPolicy",
]


class OrderingPolicy(Protocol):
    """Selects and orders pending transactions for the next block.

    A miner with nothing executable builds an empty block without calling
    :meth:`order`, so a policy must not rely on being consulted every block:
    draw randomness and count only per transaction ordered, as every shipped
    policy does (none draws or counts anything on empty input).
    """

    name: str

    def order(
        self,
        executable: Dict[Address, List[PoolEntry]],
        state: WorldState,
        timestamp: float,
    ) -> List[Transaction]:
        """Return the ordered transaction list for the next block."""
        ...


def merge_sender_queues(
    executable: Dict[Address, List[PoolEntry]],
    head_key: Callable[[PoolEntry], object],
) -> List[Transaction]:
    """Merge per-sender nonce-ordered queues by repeatedly taking the best head.

    ``head_key`` ranks the *next* transaction of each sender; lower sorts
    first.  Because only queue heads are ever eligible, per-sender nonce order
    is preserved no matter what the key does — this is the "equivalent to
    sequential consistency" behaviour of Section II-C.
    """
    queues: Dict[Address, List[PoolEntry]] = {
        sender: list(entries) for sender, entries in executable.items() if entries
    }
    ordered: List[Transaction] = []
    while queues:
        best_sender = min(queues, key=lambda sender: (head_key(queues[sender][0]), sender))
        entry = queues[best_sender].pop(0)
        ordered.append(entry.transaction)
        if not queues[best_sender]:
            del queues[best_sender]
    return ordered


class FeeArrivalPolicy:
    """Geth-like ordering: gas price descending, then local arrival time."""

    name = "fee_arrival"

    def order(
        self,
        executable: Dict[Address, List[PoolEntry]],
        state: WorldState,
        timestamp: float,
    ) -> List[Transaction]:
        return merge_sender_queues(
            executable,
            head_key=lambda entry: (-entry.transaction.gas_price, entry.arrival_time),
        )


class FifoPolicy:
    """Order strictly by local arrival time (earliest first)."""

    name = "fifo"

    def order(
        self,
        executable: Dict[Address, List[PoolEntry]],
        state: WorldState,
        timestamp: float,
    ) -> List[Transaction]:
        return merge_sender_queues(executable, head_key=lambda entry: entry.arrival_time)


class ArrivalJitterPolicy:
    """Arrival order blurred by a per-transaction jitter — the realistic default.

    Contemporary (2019, geth 1.8.x) miners pop equal-priced transactions from
    a heap whose tie-breaking is unrelated to arrival time, and rebuild the
    pending block as transactions trickle in; the net effect is an ordering
    that is *correlated* with arrival but can swap transactions whose
    arrivals are close relative to the block interval.  The jitter magnitude
    is the model's single knob for how much "miner privilege" reorders
    same-priced transactions from different senders (per-sender nonce order
    is, as always, preserved).  Gas price still dominates the ordering.
    """

    name = "arrival_jitter"

    def __init__(self, jitter_seconds: float = 4.0, seed: int = 0) -> None:
        if jitter_seconds < 0:
            raise ValueError("jitter must be non-negative")
        self.jitter_seconds = jitter_seconds
        self._rng = random.Random(seed)

    def order(
        self,
        executable: Dict[Address, List[PoolEntry]],
        state: WorldState,
        timestamp: float,
    ) -> List[Transaction]:
        jitter: Dict[bytes, float] = {}

        def key(entry: PoolEntry) -> tuple:
            if entry.hash not in jitter:
                jitter[entry.hash] = self._rng.uniform(0.0, self.jitter_seconds)
            return (
                -entry.transaction.gas_price,
                entry.arrival_time + jitter[entry.hash],
            )

        return merge_sender_queues(executable, head_key=key)


class CensoringPolicy:
    """Wrap another policy and refuse to include transactions matching a predicate.

    The adversarial extreme of miner privilege (Section II-C): a miner is
    free to leave any pending transaction out of its blocks.  Censoring a
    transaction also truncates the rest of that sender's nonce run — later
    nonces are no longer gaplessly executable without the censored one — so
    the nonce invariant is preserved by construction.  The transaction stays
    in the pool; an honest miner winning a later block can still include it,
    which is why censorship resistance in these experiments scales with the
    fraction of honest hash power.
    """

    name = "censoring"

    def __init__(
        self,
        inner: OrderingPolicy,
        should_censor: Callable[[Transaction], bool],
        on_censor: Optional[Callable[[Transaction, float], None]] = None,
    ) -> None:
        self.inner = inner
        self.should_censor = should_censor
        self.on_censor = on_censor
        self.censored_count = 0

    def order(
        self,
        executable: Dict[Address, List[PoolEntry]],
        state: WorldState,
        timestamp: float,
    ) -> List[Transaction]:
        admitted: Dict[Address, List[PoolEntry]] = {}
        for sender, entries in executable.items():
            kept: List[PoolEntry] = []
            for entry in entries:
                if self.should_censor(entry.transaction):
                    self.censored_count += 1
                    if self.on_censor is not None:
                        self.on_censor(entry.transaction, timestamp)
                    break
                kept.append(entry)
            if kept:
                admitted[sender] = kept
        return self.inner.order(admitted, state, timestamp)


class RandomPolicy:
    """Arbitrary (seeded) ordering across senders — miner privilege at its worst."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def order(
        self,
        executable: Dict[Address, List[PoolEntry]],
        state: WorldState,
        timestamp: float,
    ) -> List[Transaction]:
        # Assign each entry a random priority once per block so the merge stays
        # a strict weak order while still being arbitrary across senders.
        priorities: Dict[bytes, float] = {}

        def key(entry: PoolEntry) -> float:
            if entry.hash not in priorities:
                priorities[entry.hash] = self._rng.random()
            return priorities[entry.hash]

        return merge_sender_queues(executable, head_key=key)
