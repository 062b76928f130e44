"""DAG nodes wrapping Sereth transactions (the ``Node`` of Algorithm 2)."""

from __future__ import annotations

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
    race — possibly several successors.
    """

    transaction: Transaction
    fpv: FPV
    mark: bytes
    arrival_time: float = 0.0
    previous: Optional["TxNode"] = None
    successors: List["TxNode"] = field(default_factory=list)

    @property
    def sender(self) -> bytes:
        return self.transaction.sender

    @property
    def is_head_candidate(self) -> bool:
        return self.fpv.is_head_candidate

    def detach(self) -> None:
        """Clear graph links (used when rebuilding the series from scratch)."""
        self.previous = None
        self.successors.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "head" if self.is_head_candidate else "succ"
        return (
            f"TxNode({kind}, tx={self.transaction.short_hash()}, "
            f"mark={self.mark.hex()[:8]}, value={self.fpv.value.hex()[-8:]})"
        )
