"""Blocks and block headers.

A block commits a miner-chosen ordered list of transactions as one atomic
super-transaction (the paper's "block publishing").  Headers carry the
parent link, state/transaction/receipt roots, difficulty and timestamp so
that validating peers can replay the block and check the roots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional

from ..crypto.addresses import Address, ZERO_ADDRESS
from ..crypto.keccak import keccak256
from ..encoding.rlp import rlp_encode
from .receipt import Receipt, receipts_root
from .transaction import Transaction
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

    @cached_property
    def hash(self) -> bytes:
        """Keccak-256 of the RLP-encoded header fields (computed once; headers are immutable)."""
        return keccak256(
            rlp_encode(
                [
                    self.parent_hash,
                    self.number,
                    int(self.timestamp * 1000),
                    self.miner,
                    self.state_root,
                    self.transactions_root,
                    self.receipts_root,
                    self.difficulty,
                    self.gas_limit,
                    self.gas_used,
                    self.nonce,
                    self.extra_data,
                ]
            )
        )


@dataclass(frozen=True)
class Block:
    """A published block: header plus the ordered transactions and receipts."""

    header: BlockHeader
    transactions: List[Transaction] = field(default_factory=list)
    receipts: List[Receipt] = field(default_factory=list)

    @property
    def hash(self) -> bytes:
        return self.header.hash

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
