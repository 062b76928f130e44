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
from ..encoding.rlp import rlp_encode, rlp_list, rlp_payload
from ..record import record
from .trie import ordered_trie_root

__all__ = ["LogEntry", "Receipt"]


@record
class LogEntry:
    """An event emitted by a contract during execution."""

    address: Address
    topics: Tuple[bytes, ...]
    data: bytes = b""
    _encoded: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)

    def encode(self) -> bytes:
        """``[address, topics, data]`` as one RLP list, encoded once: the
        receipt's consensus form and its wire form both embed it."""
        encoded = self._encoded
        if encoded is None:
            encoded = rlp_encode([self.address, list(self.topics), self.data])
            _store_encoded(self, encoded)
        return encoded


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
        head = rlp_payload((self.transaction_hash, 1 if self.success else 0, self.gas_used))
        logs = rlp_list(b"".join([log.encode() for log in self.logs]))
        tail = rlp_payload(
            (
                self.error.encode("utf-8") if self.error else b"",
                self.return_data,
                self.block_number if self.block_number is not None else b"",
                self.transaction_index if self.transaction_index is not None else b"",
            )
        )
        return rlp_list(head + logs + tail)

    @property
    def failed(self) -> bool:
        return not self.success


def receipts_root(receipts: List[Receipt]) -> bytes:
    """Merkle Patricia trie root over the block's receipts (keyed by index)."""
    return ordered_trie_root([receipt.encode() for receipt in receipts])


_store_encoded = LogEntry.__dict__["_encoded"].__set__
