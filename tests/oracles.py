"""Reference implementations only the tests need.

Each is an oracle the program itself never calls: the wire *decoder* (the
simulator gossips live objects and only ever encodes), a value-transfer-only
executor for chain-layer tests that do not exercise contracts, and the
recursive DEEPESTBRANCH transcribed line for line from the paper, against
which the iterative search the HMS uses is checked.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.chain.block import Block, BlockHeader
from repro.chain.executor import BlockContext
from repro.chain.receipt import LogEntry, Receipt
from repro.chain.state import WorldState
from repro.chain.transaction import TIMESTAMP_SCALE, Transaction
from repro.core.hms.node import TxNode
from repro.crypto.addresses import Address
from repro.encoding.rlp import RLPDecodingError, rlp_decode


# -- the wire codec ------------------------------------------------------------------------


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


def _fields(payload: bytes, what: str, length: int, shape: str) -> list:
    try:
        fields = rlp_decode(payload)
    except RLPDecodingError as error:
        raise WireDecodingError(f"malformed {what} payload: {error}") from None
    if not isinstance(fields, list) or len(fields) != length:
        raise WireDecodingError(f"{what} payload must be {shape}")
    return fields


def encode_transaction(transaction: Transaction) -> bytes:
    """``[sender, nonce, to, value, gas_price, gas_limit, data, signature,
    submitted_at]``, derived once by the transaction itself."""
    return transaction.wire


def decode_transaction(payload: bytes) -> Transaction:
    fields = _fields(payload, "transaction", 9, "a 9-item list")
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


def encode_header(header: BlockHeader) -> bytes:
    """The twelve header fields, timestamp in integer microseconds."""
    return header.wire


def decode_header(payload: bytes) -> BlockHeader:
    fields = _fields(payload, "header", 12, "a 12-item list")
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


def _decode_log(fields: list) -> LogEntry:
    if len(fields) != 3 or not isinstance(fields[1], list):
        raise WireDecodingError("log entries must be [address, topics, data]")
    return LogEntry(address=fields[0], topics=tuple(fields[1]), data=fields[2])


def encode_receipt(receipt: Receipt) -> bytes:
    """``[transaction_hash, success, gas_used, logs, error, return_data,
    block_number, transaction_index]``, derived once per (sealed) receipt."""
    return receipt.wire


def decode_receipt(payload: bytes) -> Receipt:
    fields = _fields(payload, "receipt", 8, "an 8-item list")
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


def encode_block(block: Block) -> bytes:
    """``[header, [transaction wire bytes...], [receipts...]]``."""
    return block.wire


def decode_block(payload: bytes) -> Block:
    fields = _fields(payload, "block", 3, "[header, transactions, receipts]")
    return Block(
        header=decode_header(fields[0]),
        transactions=[decode_transaction(item) for item in fields[1]],
        receipts=[decode_receipt(item) for item in fields[2]],
    )


# -- a value-transfer-only executor --------------------------------------------------------


class ValueTransferExecutor:
    """Applies plain value transfers only; the contract engine is
    :class:`repro.evm.engine.ExecutionEngine`."""

    def execute(
        self, state: WorldState, transaction: Transaction, block: BlockContext, index: int
    ) -> Receipt:
        def receipt(success: bool, gas_used: int, error: Optional[str] = None) -> Receipt:
            return Receipt(transaction.hash, success, gas_used, [], error, b"", block.number, index, block.timestamp)

        intrinsic = transaction.intrinsic_gas()
        fee = intrinsic * transaction.gas_price
        sender_balance = state.get_balance(transaction.sender)
        if transaction.nonce != state.get_nonce(transaction.sender):
            return receipt(False, 0, "nonce mismatch")
        state.increment_nonce(transaction.sender)
        if sender_balance < transaction.value + fee or intrinsic > transaction.gas_limit:
            return receipt(False, min(intrinsic, transaction.gas_limit), "insufficient balance or gas")
        state.subtract_balance(transaction.sender, transaction.value + fee)
        if transaction.to is not None:
            state.add_balance(transaction.to, transaction.value)
        state.add_balance(block.miner, fee)
        return receipt(True, intrinsic)


# -- DEEPESTBRANCH as the paper writes it ----------------------------------------------------


def deepest_branch_recursive(head: TxNode) -> List[TxNode]:
    """DEEPESTBRANCH exactly as written in the paper (recursive DFS)."""
    best: Dict[str, object] = {"depth": 0, "path": []}

    def explore(node: TxNode, depth: int, path: List[TxNode]) -> None:
        if not node.successors:
            if depth > best["depth"]:
                best["depth"] = depth
                best["path"] = list(path)
            return
        for successor in node.successors:
            path.append(successor)
            explore(successor, depth + 1, path)
            path.pop()

    explore(head, 1, [head])
    if not best["path"]:
        return [head]
    return list(best["path"])  # type: ignore[arg-type]
