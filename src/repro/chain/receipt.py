"""Transaction receipts and event logs.

Receipts record the outcome of executing a transaction inside a block.  The
paper's central observation is that *failed* transactions are still included
in the block (they consume space and raw throughput) but make no state
change; the receipt's ``success`` flag is what the state-throughput metric
counts.
"""

from __future__ import annotations

from dataclasses import field
from typing import List, Optional, Tuple

from ..crypto.addresses import Address
from ..encoding.rlp import rlp_list, rlp_payload
from ..record import record
from .trie import ordered_trie_root

__all__ = ["LogEntry", "Receipt"]


@record
class LogEntry:
    """An event emitted by a contract during execution."""

    address: Address
    topics: Tuple[bytes, ...]
    data: bytes = b""

    def encode(self) -> bytes:
        """``[address, topics, data]`` as one RLP list.  Its receipt encodes
        it once, into the consensus bytes both of the receipt's forms share."""
        return rlp_list(rlp_payload((self.address, self.topics, self.data)))


@record
class Receipt:
    """Execution outcome of one transaction within a block.

    Sealed at construction, already stamped with its block position.  The
    consensus fields (transaction hash, status, gas, log encodings) are
    RLP-encoded once, when the receipts root first asks for them, and the
    wire form is framed from those same bytes.
    """

    transaction_hash: bytes
    success: bool
    gas_used: int
    logs: List[LogEntry] = field(default_factory=list)
    error: Optional[str] = None
    return_data: bytes = b""
    block_number: Optional[int] = None
    transaction_index: Optional[int] = None
    block_timestamp: Optional[float] = None
    _consensus: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)
    _wire: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)

    def _consensus_payload(self) -> bytes:
        payload = self._consensus
        if payload is None:
            payload = rlp_payload(
                (self.transaction_hash, 1 if self.success else 0, self.gas_used)
            ) + rlp_list(b"".join([log.encode() for log in self.logs]))
            _store_consensus(self, payload)
        return payload

    def encode(self) -> bytes:
        """``[transaction_hash, status, gas_used, logs]``: the receipts-root leaf."""
        return rlp_list(self._consensus_payload())

    @property
    def wire(self) -> bytes:
        """The wire form: the consensus fields plus error text, return data
        and block position, derived once and framed from the consensus bytes."""
        wire = self._wire
        if wire is None:
            wire = rlp_list(
                self._consensus_payload()
                + rlp_payload(
                    (
                        self.error.encode("utf-8") if self.error else b"",
                        self.return_data,
                        self.block_number if self.block_number is not None else b"",
                        self.transaction_index if self.transaction_index is not None else b"",
                    )
                )
            )
            _store_wire(self, wire)
        return wire

    @property
    def failed(self) -> bool:
        return not self.success


def receipts_root(receipts: List[Receipt]) -> bytes:
    """Merkle Patricia trie root over the block's receipts (keyed by index)."""
    return ordered_trie_root([receipt.encode() for receipt in receipts])


_store_consensus = Receipt.__dict__["_consensus"].__set__
_store_wire = Receipt.__dict__["_wire"].__set__
