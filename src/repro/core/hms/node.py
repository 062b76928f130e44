"""DAG nodes wrapping Sereth transactions (the ``Node`` of Algorithm 2)."""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import List, Optional

from ...chain.transaction import Transaction
from .fpv import FPV

__all__ = ["TxNode"]


@dataclass
class TxNode:
    """One pending Sereth ``set`` transaction inside the HMS graph.

    ``previous`` / ``successors`` are filled in by the SERIES step
    (Algorithm 3): a transaction has at most one predecessor (the one whose
    mark equals this transaction's ``previous_mark``) but — because clients
    race — possibly several successors.  The ``previous`` link is weak, so
    the DAG holds no reference cycle and a discarded graph is freed by
    reference counting as soon as its last node is dropped.
    """

    transaction: Transaction
    fpv: FPV
    mark: bytes
    arrival_time: float = 0.0
    successors: List["TxNode"] = field(default_factory=list)
    _previous: Optional["weakref.ReferenceType[TxNode]"] = field(
        default=None, repr=False, compare=False
    )

    @property
    def previous(self) -> Optional["TxNode"]:
        """The predecessor in the series, if any."""
        link = self._previous
        return None if link is None else link()

    @previous.setter
    def previous(self, node: Optional["TxNode"]) -> None:
        self._previous = None if node is None else weakref.ref(node)

    @property
    def sender(self) -> bytes:
        return self.transaction.sender

    @property
    def is_head_candidate(self) -> bool:
        return self.fpv.is_head_candidate

    def detach(self) -> None:
        """Clear graph links (used when rebuilding the series from scratch)."""
        self._previous = None
        self.successors.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "head" if self.is_head_candidate else "succ"
        return (
            f"TxNode({kind}, tx={self.transaction.short_hash()}, "
            f"mark={self.mark.hex()[:8]}, value={self.fpv.value.hex()[-8:]})"
        )
