"""Blocks and block headers.

A block commits a miner-chosen ordered list of transactions as one atomic
super-transaction (the paper's "block publishing").  Headers carry the
parent link, state/transaction/receipt roots, difficulty and timestamp so
that validating peers can replay the block and check the roots.

Headers and blocks are immutable once sealed, so each owns its bytes and
pays for them once, when first asked: a header encodes the eleven fields
around its timestamp a single time for both its hash preimage
(milliseconds) and its wire form (microseconds); a block's ``hash`` and
``wire`` live exactly as long as the block, so retention that drops the
block drops its bytes.  The layouts are ``rlp_encode`` over the written-out
field lists (``tests/chain/test_derive_once.py`` pins them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Tuple

from ..crypto.addresses import Address, ZERO_ADDRESS
from ..crypto.keccak import keccak256
from ..encoding.rlp import rlp_encode, rlp_list, rlp_payload
from .receipt import Receipt, receipts_root
from .transaction import TIMESTAMP_SCALE, Transaction
from .trie import ordered_trie_root

__all__ = ["BlockHeader", "Block", "transactions_root"]


def transactions_root(transactions: List[Transaction]) -> bytes:
    """Merkle Patricia trie root over the block's ordered transaction list,
    keyed by RLP-encoded index — the yellow-paper commitment, so inclusion of
    a single transaction is provable against the header."""
    return ordered_trie_root([transaction.hash for transaction in transactions])


@dataclass(frozen=True)
class BlockHeader:
    """Consensus-relevant block metadata."""

    parent_hash: bytes
    number: int
    timestamp: float
    miner: Address = ZERO_ADDRESS
    state_root: bytes = b"\x00" * 32
    transactions_root: bytes = b"\x00" * 32
    receipts_root: bytes = b"\x00" * 32
    difficulty: int = 1
    gas_limit: int = 8_000_000
    gas_used: int = 0
    nonce: int = 0
    extra_data: bytes = b""

    def _encode(self) -> Tuple[bytes, bytes]:
        """``(hash preimage, wire form)``: the twelve-field RLP list with the
        timestamp in integer milliseconds and in integer microseconds.  The
        other eleven fields are encoded once and shared by both."""
        before = rlp_payload((self.parent_hash, self.number))
        after = rlp_payload(
            (
                self.miner,
                self.state_root,
                self.transactions_root,
                self.receipts_root,
                self.difficulty,
                self.gas_limit,
                self.gas_used,
                self.nonce,
                self.extra_data,
            )
        )
        milliseconds = rlp_payload((int(self.timestamp * 1000),))
        microseconds = rlp_payload((int(self.timestamp * TIMESTAMP_SCALE),))
        return rlp_list(before + milliseconds + after), rlp_list(before + microseconds + after)

    @cached_property
    def hash(self) -> bytes:
        """Keccak-256 of the RLP-encoded header fields (computed once; headers
        are immutable).  A header that is hashed is about to be gossiped, so
        the wire form the same pass produced is kept alongside."""
        preimage, wire = self._encode()
        self.__dict__.setdefault("wire", wire)
        return keccak256(preimage)

    @cached_property
    def wire(self) -> bytes:
        """The wire form: the hashed fields with the timestamp in microseconds."""
        return self._encode()[1]


@dataclass(frozen=True)
class Block:
    """A published block: header plus the ordered transactions and receipts."""

    header: BlockHeader
    transactions: List[Transaction] = field(default_factory=list)
    receipts: List[Receipt] = field(default_factory=list)

    @cached_property
    def hash(self) -> bytes:
        return self.header.hash

    @cached_property
    def wire(self) -> bytes:
        """``[header, [transaction wire bytes...], [receipts...]]``, computed
        once.  Each transaction contributes the bytes it already carries —
        the ones ``broadcast_transaction`` put on the wire.  Receipts are
        encoded when the block is: they are mutable until
        ``execute_transactions`` has stamped them, so they cache nothing."""
        return rlp_encode(
            [
                self.header.wire,
                [transaction.wire for transaction in self.transactions],
                [receipt.wire for receipt in self.receipts],
            ]
        )

    @property
    def number(self) -> int:
        return self.header.number

    @property
    def timestamp(self) -> float:
        return self.header.timestamp

    def transaction_count(self) -> int:
        return len(self.transactions)

    def successful_transaction_count(self) -> int:
        """Number of transactions in this block that changed state."""
        return sum(1 for receipt in self.receipts if receipt.success)

    def failed_transaction_count(self) -> int:
        return len(self.receipts) - self.successful_transaction_count()

    def verify_roots(self) -> bool:
        """Check that the header commitments match the block body."""
        return (
            self.header.transactions_root == transactions_root(self.transactions)
            and self.header.receipts_root == receipts_root(self.receipts)
        )

    def contains(self, transaction_hash: bytes) -> bool:
        return any(transaction.hash == transaction_hash for transaction in self.transactions)

    def receipt_for(self, transaction_hash: bytes) -> Optional[Receipt]:
        for receipt in self.receipts:
            if receipt.transaction_hash == transaction_hash:
                return receipt
        return None

    def short_hash(self) -> str:
        return self.hash.hex()[:8]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Block(number={self.number}, hash={self.short_hash()}, "
            f"txs={self.transaction_count()}, ok={self.successful_transaction_count()})"
        )
