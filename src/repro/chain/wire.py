"""Wire codec: RLP serialization of transactions, headers, and blocks.

The discrete-event network passes Python objects between peers for speed,
but a real devp2p network ships RLP byte strings.  This codec provides the
byte-level round trip so that (a) object identity never leaks information a
real peer would not have, which tests assert by round-tripping every gossiped
artefact, and (b) traces and fixtures can be persisted and replayed.

Encoding is owned by the objects: an immutable artefact (``Transaction``,
``BlockHeader``, ``Block``) derives its ``wire`` bytes once and keeps them
for as long as it lives; a mutable ``Receipt`` encodes on every read.  The
``encode_*`` functions only read that attribute.  :func:`wire_encoding` is
the one counted, traced seam the gossip layer calls: a *miss* is the call
that derived an object's bytes (timed as the ``gossip_encode`` phase), a
*hit* one that found them on the object.  Nothing is held here, so there is
nothing to clear between trials and nothing for threads to contend on.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional, Union

from ..crypto.addresses import Address
from ..encoding.rlp import RLPDecodingError, rlp_decode
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
    """The twelve header fields as one RLP list, timestamp in integer
    microseconds (:attr:`BlockHeader.wire`)."""
    return header.wire


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


def _decode_log(fields: list) -> LogEntry:
    if len(fields) != 3 or not isinstance(fields[1], list):
        raise WireDecodingError("log entries must be [address, topics, data]")
    return LogEntry(address=fields[0], topics=tuple(fields[1]), data=fields[2])


def encode_receipt(receipt: Receipt) -> bytes:
    """``[transaction_hash, success, gas_used, [[address, topics, data]...],
    error, return_data, block_number, transaction_index]``
    (:attr:`Receipt.wire`, encoded per call: receipts are mutable)."""
    return receipt.wire


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
    """``[header, [transaction wire bytes...], [receipts...]]``
    (:attr:`Block.wire`, assembled once per block from the bytes its header
    and transactions already carry)."""
    return block.wire


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


# -- the gossip layer's seam -------------------------------------------------------------

_WIRE_TYPES = (Transaction, Block, BlockHeader, Receipt)

_WIRE_STATS = {"hits": 0, "misses": 0}


def wire_encoding(artefact: Union[Transaction, Block, BlockHeader, Receipt]) -> bytes:
    """The artefact's wire encoding, derived at most once per immutable object.

    Gossiped artefacts are immutable once sealed, so the gossip layer hands
    the *same* frozen object to every neighbour and accounts the bytes it
    would have put on a real wire (for traffic accounting and persisted
    traces) instead of paying an encode/decode round trip per hop.  The
    bytes live on the artefact: this only counts whether it found them there
    (a hit) or derived them (a miss, timed as the ``gossip_encode`` phase).
    """
    if type(artefact) not in _WIRE_TYPES:
        raise TypeError(f"no wire encoding for {type(artefact).__name__}")
    payload = artefact.__dict__.get("wire")  # where cached_property keeps it
    if payload is not None:
        _WIRE_STATS["hits"] += 1
        return payload
    tracer = _obs.TRACER
    start = perf_counter() if tracer is not None else 0.0
    payload = artefact.wire
    if tracer is not None:
        tracer.phase("gossip_encode", start)
    _WIRE_STATS["misses"] += 1
    return payload


def wire_cache_stats() -> dict:
    """Hit/miss counters of :func:`wire_encoding`.

    A miss is a call that derived the artefact's bytes (its first
    ``wire_encoding``, or any call on a ``Receipt``, which caches nothing);
    a hit is one that found them on the object — a block range sync offers
    again, a transaction re-announced, a header hashed before.  The counters
    are plain ints: exact on one thread, advisory under several.
    """
    return dict(_WIRE_STATS)
