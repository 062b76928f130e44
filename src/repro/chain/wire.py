"""Wire codec: RLP serialization of transactions, headers, and blocks.

The discrete-event network passes Python objects between peers for speed,
but a real devp2p network ships RLP byte strings.  This codec provides the
byte-level round trip so that (a) object identity never leaks information a
real peer would not have, which tests assert by round-tripping every gossiped
artefact, and (b) traces and fixtures can be persisted and replayed.
"""

from __future__ import annotations

from time import perf_counter
from typing import List, Optional, Union

from ..crypto.addresses import Address
from ..encoding.rlp import RLPDecodingError, rlp_decode, rlp_encode
from ..obs import runtime as _obs
from .block import Block, BlockHeader
from .receipt import LogEntry, Receipt
from .transaction import TIMESTAMP_SCALE, Transaction

__all__ = [
    "WireDecodingError",
    "encode_transaction",
    "decode_transaction",
    "encode_header",
    "decode_header",
    "encode_receipt",
    "decode_receipt",
    "encode_block",
    "decode_block",
    "wire_encoding",
    "clear_wire_cache",
    "wire_cache_stats",
]


class WireDecodingError(ValueError):
    """Raised when a wire payload cannot be decoded into a chain object."""


def _as_int(field: bytes) -> int:
    return int.from_bytes(field, "big") if field else 0


def _optional_address(field: bytes) -> Optional[Address]:
    if field == b"":
        return None
    if len(field) != 20:
        raise WireDecodingError("address fields must be 20 bytes or empty")
    return field


# -- transactions -------------------------------------------------------------------


def encode_transaction(transaction: Transaction) -> bytes:
    """Serialize a transaction, including its signature and submission time:
    the nine-item list ``[sender, nonce, to, value, gas_price, gas_limit,
    data, signature, submitted_at]``, which the transaction derives once
    from its canonical body (:attr:`Transaction.wire`)."""
    return transaction.wire


def decode_transaction(payload: bytes) -> Transaction:
    try:
        fields = rlp_decode(payload)
    except RLPDecodingError as error:
        raise WireDecodingError(f"malformed transaction payload: {error}") from None
    if not isinstance(fields, list) or len(fields) != 9:
        raise WireDecodingError("transaction payload must be a 9-item list")
    return Transaction(
        sender=fields[0],
        nonce=_as_int(fields[1]),
        to=_optional_address(fields[2]),
        value=_as_int(fields[3]),
        gas_price=_as_int(fields[4]),
        gas_limit=_as_int(fields[5]),
        data=fields[6],
        signature=fields[7],
        submitted_at=_as_int(fields[8]) / TIMESTAMP_SCALE,
    )


# -- headers -------------------------------------------------------------------------


def encode_header(header: BlockHeader) -> bytes:
    return rlp_encode(
        [
            header.parent_hash,
            header.number,
            int(header.timestamp * TIMESTAMP_SCALE),
            header.miner,
            header.state_root,
            header.transactions_root,
            header.receipts_root,
            header.difficulty,
            header.gas_limit,
            header.gas_used,
            header.nonce,
            header.extra_data,
        ]
    )


def decode_header(payload: bytes) -> BlockHeader:
    try:
        fields = rlp_decode(payload)
    except RLPDecodingError as error:
        raise WireDecodingError(f"malformed header payload: {error}") from None
    if not isinstance(fields, list) or len(fields) != 12:
        raise WireDecodingError("header payload must be a 12-item list")
    return BlockHeader(
        parent_hash=fields[0],
        number=_as_int(fields[1]),
        timestamp=_as_int(fields[2]) / TIMESTAMP_SCALE,
        miner=fields[3],
        state_root=fields[4],
        transactions_root=fields[5],
        receipts_root=fields[6],
        difficulty=_as_int(fields[7]),
        gas_limit=_as_int(fields[8]),
        gas_used=_as_int(fields[9]),
        nonce=_as_int(fields[10]),
        extra_data=fields[11],
    )


# -- receipts and logs -------------------------------------------------------------------


def _encode_log(log: LogEntry) -> list:
    return [log.address, list(log.topics), log.data]


def _decode_log(fields: list) -> LogEntry:
    if len(fields) != 3 or not isinstance(fields[1], list):
        raise WireDecodingError("log entries must be [address, topics, data]")
    return LogEntry(address=fields[0], topics=tuple(fields[1]), data=fields[2])


def encode_receipt(receipt: Receipt) -> bytes:
    return rlp_encode(
        [
            receipt.transaction_hash,
            1 if receipt.success else 0,
            receipt.gas_used,
            [_encode_log(log) for log in receipt.logs],
            receipt.error.encode("utf-8") if receipt.error else b"",
            receipt.return_data,
            receipt.block_number if receipt.block_number is not None else b"",
            receipt.transaction_index if receipt.transaction_index is not None else b"",
        ]
    )


def decode_receipt(payload: bytes) -> Receipt:
    try:
        fields = rlp_decode(payload)
    except RLPDecodingError as error:
        raise WireDecodingError(f"malformed receipt payload: {error}") from None
    if not isinstance(fields, list) or len(fields) != 8:
        raise WireDecodingError("receipt payload must be an 8-item list")
    return Receipt(
        transaction_hash=fields[0],
        success=_as_int(fields[1]) == 1,
        gas_used=_as_int(fields[2]),
        logs=[_decode_log(log_fields) for log_fields in fields[3]],
        error=fields[4].decode("utf-8") if fields[4] else None,
        return_data=fields[5],
        block_number=_as_int(fields[6]) if fields[6] != b"" else None,
        transaction_index=_as_int(fields[7]) if fields[7] != b"" else None,
    )


# -- blocks ---------------------------------------------------------------------------------


def encode_block(block: Block) -> bytes:
    """``[header, [transaction wire bytes...], [receipts...]]``.  Each
    transaction contributes the bytes it already carries — the ones
    ``broadcast_transaction`` put on the wire — instead of being re-encoded
    per block."""
    return rlp_encode(
        [
            encode_header(block.header),
            [transaction.wire for transaction in block.transactions],
            [encode_receipt(receipt) for receipt in block.receipts],
        ]
    )


def decode_block(payload: bytes) -> Block:
    try:
        fields = rlp_decode(payload)
    except RLPDecodingError as error:
        raise WireDecodingError(f"malformed block payload: {error}") from None
    if not isinstance(fields, list) or len(fields) != 3:
        raise WireDecodingError("block payload must be [header, transactions, receipts]")
    header = decode_header(fields[0])
    transactions = [decode_transaction(item) for item in fields[1]]
    receipts = [decode_receipt(item) for item in fields[2]]
    return Block(header=header, transactions=transactions, receipts=receipts)


# -- per-object encoding memo ----------------------------------------------------------

_ENCODERS = {
    Transaction: encode_transaction,
    Block: encode_block,
    BlockHeader: encode_header,
    Receipt: encode_receipt,
}

_WIRE_CACHE: dict = {}
"""``id(artefact) -> (artefact, payload)``.  Holding a strong reference to
the artefact pins its ``id`` for the life of the entry, which is what makes
the id-keyed lookup sound; :func:`clear_wire_cache` bounds the lifetime."""

_WIRE_CACHE_LIMIT = 8192
"""Entry cap, evicted FIFO (dicts iterate in insertion order).  The gossip
working set is the handful of blocks currently in flight, so the cap never
bites a hit that matters — what it bounds is the *pinning*: without it a
long-horizon run keeps every gossiped block alive through its memo entry
even after the chains have pruned it.  Eviction is always safe (a re-gossip
of an evicted artefact just re-encodes)."""

_WIRE_CACHE_STATS = {"hits": 0, "misses": 0}


def wire_encoding(artefact: Union[Transaction, Block, BlockHeader, Receipt]) -> bytes:
    """The artefact's wire encoding, computed at most once per object.

    Gossiped artefacts are immutable once sealed, so the gossip layer hands
    the *same* frozen object to every neighbour and memoises the bytes it
    would have put on a real wire (for traffic accounting and persisted
    traces) instead of paying an encode/decode round trip per hop.

    Entries hold strong references; sweep workers call
    :func:`clear_wire_cache` between trials (the same lifecycle as
    :func:`repro.crypto.keccak.clear_hash_cache`) so nothing leaks across
    runs.
    """
    key = id(artefact)
    entry = _WIRE_CACHE.get(key)
    if entry is not None and entry[0] is artefact:
        _WIRE_CACHE_STATS["hits"] += 1
        return entry[1]
    encoder = _ENCODERS.get(type(artefact))
    if encoder is None:
        raise TypeError(f"no wire encoding for {type(artefact).__name__}")
    tracer = _obs.TRACER
    start = perf_counter() if tracer is not None else 0.0
    payload = encoder(artefact)
    if tracer is not None:
        tracer.phase("gossip_encode", start)
    _WIRE_CACHE[key] = (artefact, payload)
    _WIRE_CACHE_STATS["misses"] += 1
    while len(_WIRE_CACHE) > _WIRE_CACHE_LIMIT:
        _WIRE_CACHE.pop(next(iter(_WIRE_CACHE)))
    return payload


def clear_wire_cache() -> None:
    """Drop every memoised wire encoding (and the artefact references
    pinning them).  Always safe: the memo only caches pure object->bytes
    pairs for immutable artefacts."""
    _WIRE_CACHE.clear()


def wire_cache_stats() -> dict:
    """Hit/miss/size counters of the wire-encoding memo.

    A hit is a :func:`wire_encoding` call answered from the id-keyed memo
    (a block offered to its second neighbour, a transaction re-announced);
    a miss is one that ran the artefact's encoder.  Bytes an artefact keeps
    on itself are neither: a transaction's first ``wire_encoding`` is still
    a miss even though its encoder only reads :attr:`Transaction.wire`, and
    ``encode_block`` reading those same per-transaction bytes never enters
    the memo, so it moves no counter.
    """
    return {
        "hits": _WIRE_CACHE_STATS["hits"],
        "misses": _WIRE_CACHE_STATS["misses"],
        "size": len(_WIRE_CACHE),
    }
