"""Transaction receipts and event logs.

Receipts record the outcome of executing a transaction inside a block.  The
paper's central observation is that *failed* transactions are still included
in the block (they consume space and raw throughput) but make no state
change; the receipt's ``success`` flag is what the state-throughput metric
counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..crypto.addresses import Address
from ..crypto.keccak import keccak256
from ..encoding.rlp import rlp_encode
from .trie import ordered_trie_root

__all__ = ["LogEntry", "Receipt"]


@dataclass(frozen=True)
class LogEntry:
    """An event emitted by a contract during execution."""

    address: Address
    topics: Tuple[bytes, ...]
    data: bytes = b""

    def encode(self) -> bytes:
        return rlp_encode([self.address, list(self.topics), self.data])


@dataclass
class Receipt:
    """Execution outcome of one transaction within a block."""

    transaction_hash: bytes
    success: bool
    gas_used: int
    logs: List[LogEntry] = field(default_factory=list)
    error: Optional[str] = None
    return_data: bytes = b""
    block_number: Optional[int] = None
    transaction_index: Optional[int] = None
    block_timestamp: Optional[float] = None

    def encode(self) -> bytes:
        """RLP-encode the consensus-relevant receipt fields."""
        return rlp_encode(
            [
                self.transaction_hash,
                1 if self.success else 0,
                self.gas_used,
                [entry.encode() for entry in self.logs],
            ]
        )

    @property
    def wire(self) -> bytes:
        """The wire form: the consensus fields plus error text, return data
        and block position.  Encoded on every read — a receipt is mutable
        (``execute_transactions`` stamps its position after execution)."""
        return rlp_encode(
            [
                self.transaction_hash,
                1 if self.success else 0,
                self.gas_used,
                [[log.address, list(log.topics), log.data] for log in self.logs],
                self.error.encode("utf-8") if self.error else b"",
                self.return_data,
                self.block_number if self.block_number is not None else b"",
                self.transaction_index if self.transaction_index is not None else b"",
            ]
        )

    @property
    def failed(self) -> bool:
        return not self.success


def receipts_root(receipts: List[Receipt]) -> bytes:
    """Merkle Patricia trie root over the block's receipts (keyed by index)."""
    return ordered_trie_root([receipt.encode() for receipt in receipts])
