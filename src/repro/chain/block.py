"""Blocks and block headers.

A block commits a miner-chosen ordered list of transactions as one atomic
super-transaction (the paper's "block publishing").  Headers carry the
parent link, state/transaction/receipt roots, difficulty and timestamp so
that validating peers can replay the block and check the roots.

Headers and blocks are records (:mod:`repro.record`), sealed at
construction, and each owns its bytes: a header encodes the eleven fields
around its timestamp a single time, as it is built, for both its hash
preimage (milliseconds) and its wire form (microseconds), and hashes the
preimage there and then; a block copies its header's hash and derives its
wire form once, when first gossiped.  Both live exactly as long as the
block, so retention that drops the block drops its bytes.  The layouts are
``rlp_encode`` over the written-out field lists
(``tests/chain/test_derive_once.py`` pins them).
"""

from __future__ import annotations

from dataclasses import field
from typing import List, Optional

from ..crypto.addresses import Address, ZERO_ADDRESS
from ..crypto.keccak import keccak256
from ..encoding.rlp import rlp_encode, rlp_list, rlp_payload
from ..record import WeakReferable, record
from .receipt import Receipt, receipts_root
from .transaction import TIMESTAMP_SCALE, Transaction
from .trie import ordered_trie_root

__all__ = ["BlockHeader", "Block", "transactions_root"]


def transactions_root(transactions: List[Transaction]) -> bytes:
    """Merkle Patricia trie root over the block's ordered transaction list,
    keyed by RLP-encoded index — the yellow-paper commitment, so inclusion of
    a single transaction is provable against the header."""
    return ordered_trie_root([transaction.hash for transaction in transactions])


@record
class BlockHeader:
    """Consensus-relevant block metadata.

    Sealed at construction: the one pass that builds a header encodes the
    eleven fields around its timestamp once and derives from them its hash
    preimage (timestamp in milliseconds), its wire form (microseconds) and
    its ``hash``.
    """

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
    hash: bytes = field(init=False, repr=False, compare=False)
    """Keccak-256 of the RLP-encoded header fields."""
    _wire: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
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
        timestamp = self.timestamp
        milliseconds = rlp_payload((int(timestamp * 1000),))
        microseconds = rlp_payload((int(timestamp * TIMESTAMP_SCALE),))
        _store_header_hash(self, keccak256(rlp_list(before + milliseconds + after)))
        _store_header_wire(self, rlp_list(before + microseconds + after))

    @property
    def wire(self) -> bytes:
        """The wire form: the hashed fields with the timestamp in microseconds."""
        return self._wire


@record
class Block(WeakReferable):
    """A published block: header plus the ordered transactions and receipts.
    Weakly referable, so memory tests can watch a block being released."""

    header: BlockHeader
    transactions: List[Transaction] = field(default_factory=list)
    receipts: List[Receipt] = field(default_factory=list)
    hash: bytes = field(init=False, repr=False, compare=False)
    """The header's hash, copied at construction."""
    _wire: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _store_block_hash(self, self.header.hash)

    @property
    def wire(self) -> bytes:
        """``[header, [transaction wire bytes...], [receipts...]]``, derived
        once, when first gossiped, from the bytes each part already carries:
        a transaction's are the ones ``broadcast_transaction`` put on the
        wire, a receipt's are framed from its consensus encoding."""
        wire = self._wire
        if wire is None:
            wire = rlp_encode(
                [
                    self.header._wire,
                    [transaction.wire for transaction in self.transactions],
                    [receipt.wire for receipt in self.receipts],
                ]
            )
            _store_block_wire(self, wire)
        return wire

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


_store_header_hash = BlockHeader.__dict__["hash"].__set__
_store_header_wire = BlockHeader.__dict__["_wire"].__set__
_store_block_hash = Block.__dict__["hash"].__set__
_store_block_wire = Block.__dict__["_wire"].__set__
