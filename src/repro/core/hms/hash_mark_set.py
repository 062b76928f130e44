"""HASHMARKSET — Algorithm 1: the top-level HMS entry point.

``HashMarkSet`` ties the pieces together: filter the pool (Algorithm 2),
build the series DAG and take its deepest branch (Algorithm 3), and expose
the resulting READ-UNCOMMITTED view of the managed storage variable as an
AMV tuple.  It is consumed in two places:

* the RAA provider (:mod:`repro.core.raa`) answers ``mark``/``get`` view
  calls with it, which is how smart-contract clients obtain the view; and
* the semantic mining policy (:mod:`repro.core.hms.semantic`) uses the full
  series to order a block so that dependent transactions succeed.

The paper's HMS keeps a DAG that pending transactions "enter as they are
received"; :meth:`HashMarkSet.read_uncommitted` gets the same effect by
remembering, on the instance, what its last pass derived, at three grains:

* each pool entry is classified (FPV parse + mark) once, keyed by
  ``(hash, arrival_time)``; the memo is rebuilt from the entries of every
  pass, so it never outgrows the live pool;
* the DAG is re-linked only when the ordered list of ``set`` nodes changed
  (a ``buy`` arriving or leaving does not touch it);
* handed a :class:`~repro.txpool.pool.TxPool`, the whole view is reused
  while ``(pool.version, committed)`` is unchanged — a client's ``mark``
  then ``get`` is one view, not two.  Any other iterable is read afresh.

Every grain is keyed by the inputs it was derived from, so the answer
always equals a from-scratch pass (``tests/core/test_hms_incremental.py``).
The memos belong to the instance — one per peer's RAA provider — and die
with it: nothing process-global, nothing for a trial boundary to clear.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from ...chain.transaction import Transaction
from ...crypto.addresses import ZERO_ADDRESS
from ...encoding.hexutil import to_bytes32
from ...txpool.pool import TxPool
from .fpv import AMV, EMPTY_POOL_SENTINEL, HEAD_FLAG, SUCCESS_FLAG
from .node import TxNode
from .process import HMSConfig, classify_transaction, process_transactions
from .series import Series, build_series, deepest_branch_iterative

__all__ = ["HMSView", "HashMarkSet"]


@dataclass(frozen=True)
class HMSView:
    """The READ-UNCOMMITTED view HMS returns to a caller.

    ``amv`` is the predicted (address, mark, value) of the managed variable
    once every pending series transaction has committed.  ``flag_for_next``
    is the FPV flag a client should put on the *next* ``set`` it submits:
    the head flag when the view came from committed state (no pending
    series), the successor flag otherwise.
    """

    amv: AMV
    source: str
    """``"series"`` (derived from pending transactions), ``"committed"``
    (pool empty, fell back to contract storage) or ``"empty"`` (pool empty and
    no committed state supplied — Algorithm 1's specialValue)."""
    flag_for_next: bytes
    series: Series
    pool_size: int = 0
    filtered_size: int = 0

    @property
    def mark(self) -> bytes:
        return self.amv.mark

    @property
    def value(self) -> bytes:
        return self.amv.value

    @property
    def depth(self) -> int:
        return self.series.depth


class HashMarkSet:
    """Serialize a blockchain transaction pool (Algorithm 1)."""

    def __init__(
        self,
        config: HMSConfig,
        search: Callable[[TxNode], List[TxNode]] = deepest_branch_iterative,
    ) -> None:
        self.config = config
        self.search = search
        self._classified: Dict[Tuple[bytes, float], Optional[TxNode]] = {}
        """``(hash, arrival_time) -> node`` (``None``: not a series member)
        for exactly the entries the last pass saw."""
        self._series_key: Optional[tuple] = None
        self._series = Series([])
        self._view_key: Optional[tuple] = None
        self._view: Optional[HMSView] = None

    # -- Algorithm 2 -------------------------------------------------------------

    def collect(self, pool_entries: Iterable[Tuple[Transaction, float]]) -> List[TxNode]:
        """Filter the pool into HMS nodes (PROCESS)."""
        return process_transactions(pool_entries, self.config)

    # -- Algorithm 3 -------------------------------------------------------------

    def serialize(self, pool_entries: Iterable[Tuple[Transaction, float]]) -> Series:
        """Filter and serialize the pool into the longest series."""
        return build_series(self.collect(pool_entries), self.search)

    # -- Algorithm 1 -------------------------------------------------------------

    def read_uncommitted(
        self,
        pool_entries: Union[TxPool, Iterable[Tuple[Transaction, float]]],
        committed: Optional[AMV] = None,
    ) -> HMSView:
        """Return the READ-UNCOMMITTED view of the managed storage variable.

        ``pool_entries`` is the peer's :class:`TxPool` or any iterable of
        ``(transaction, arrival_time)`` pairs in arrival order.
        ``committed`` is the AMV read from the contract's storage at the
        current head block; it is used when the pool holds no relevant
        transactions (Algorithm 1 lines 4-6) and to pick the flag for the
        caller's next transaction.
        """
        view_key = None
        if isinstance(pool_entries, TxPool):
            view_key = (pool_entries, pool_entries.version, committed, self.search)
            if view_key == self._view_key:
                return self._view
            entries = pool_entries.transactions_with_arrival()
        else:
            entries = list(pool_entries)

        known, config = self._classified, self.config
        live: Dict[Tuple[bytes, float], Optional[TxNode]] = {}
        nodes: List[TxNode] = []
        node_keys: List[Tuple[bytes, float]] = []
        for transaction, arrival_time in entries:
            key = (transaction.hash, arrival_time)
            try:
                node = known[key]
            except KeyError:
                node = classify_transaction(transaction, arrival_time, config)
            live[key] = node
            if node is not None:
                nodes.append(node)
                node_keys.append(key)
        self._classified = live

        series_key = (self.search, node_keys)
        if series_key != self._series_key:
            self._series = build_series(nodes, self.search)
            self._series_key = series_key
        series = self._series

        if not series.is_empty:
            tail = series.tail
            assert tail is not None
            amv = AMV(address=to_bytes32(tail.sender), mark=tail.mark, value=tail.fpv.value)
            source, flag_for_next = "series", SUCCESS_FLAG
        elif committed is not None:
            amv, source, flag_for_next = committed, "committed", HEAD_FLAG
        else:
            amv = AMV(
                address=to_bytes32(ZERO_ADDRESS),
                mark=EMPTY_POOL_SENTINEL,
                value=to_bytes32(0),
            )
            source, flag_for_next = "empty", HEAD_FLAG
        view = HMSView(
            amv=amv,
            source=source,
            flag_for_next=flag_for_next,
            series=series,
            pool_size=len(entries),
            filtered_size=len(nodes),
        )
        if view_key is not None:
            self._view_key, self._view = view_key, view
        return view
