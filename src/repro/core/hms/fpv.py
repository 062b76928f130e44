"""FPV / AMV tuples and mark arithmetic (Section III-C of the paper).

Every Sereth transaction carries three 32-byte words in its calldata — the
**FPV**: ``flag``, ``previous_mark``, ``value``.  The HMS algorithm derives
from it the transaction's **AMV** — ``address``, ``mark``, ``value`` — where

    mark = Keccak256(previous_mark, value)

so that a chain of ``set`` transactions forms a hash-linked series: a
transaction whose ``previous_mark`` equals another transaction's ``mark`` is
its successor.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ...chain.transaction import Transaction
from ...crypto.addresses import Address
from ...crypto.keccak import keccak256
from ...encoding.hexutil import WORD_SIZE, to_bytes32
from ...record import record

__all__ = [
    "FPV",
    "AMV",
    "HEAD_FLAG",
    "SUCCESS_FLAG",
    "BUY_FLAG",
    "EMPTY_POOL_SENTINEL",
    "compute_mark",
    "fpv_from_calldata",
    "fpv_to_words",
]

# Flag words (FPV[0]).  The exact byte values are a protocol convention shared
# by the Sereth clients and the HMS filter (Algorithm 2's SUCCESS check); only
# equality matters.
HEAD_FLAG: bytes = keccak256(b"sereth/flag/head")
"""Marks a transaction as a *head candidate*: the sender saw no pending Sereth
transactions and chained its mark from the committed contract storage."""

SUCCESS_FLAG: bytes = keccak256(b"sereth/flag/successor")
"""Marks a transaction as a successor to the tail of the pending series at the
time it was submitted."""

BUY_FLAG: bytes = keccak256(b"sereth/flag/buy")
"""Used in buy offers; buys are not part of the series DAG (Algorithm 2 only
collects ``set`` transactions) but carrying a distinct flag keeps traces
readable."""

EMPTY_POOL_SENTINEL: bytes = keccak256(b"sereth/raa/empty-pool")
"""Algorithm 1 line 5's ``specialValue``: returned through RAA when no pending
Sereth transaction exists, telling the caller to rely on committed state."""


def compute_mark(previous_mark: bytes, value: bytes) -> bytes:
    """``mark = Keccak256(previous_mark, value)`` — the series link function."""
    return keccak256(to_bytes32(previous_mark), to_bytes32(value))


@record
class FPV:
    """The (flag, previous_mark, value) words found in Sereth calldata."""

    flag: bytes
    previous_mark: bytes
    value: bytes

    def __post_init__(self) -> None:
        for name in ("flag", "previous_mark", "value"):
            word = getattr(self, name)
            if not isinstance(word, (bytes, bytearray)) or len(word) != WORD_SIZE:
                raise ValueError(f"FPV field {name} must be exactly 32 bytes")

    @property
    def mark(self) -> bytes:
        """The mark this transaction will install if it succeeds."""
        return compute_mark(self.previous_mark, self.value)

    @property
    def is_head_candidate(self) -> bool:
        return self.flag == HEAD_FLAG

    @property
    def is_successor(self) -> bool:
        return self.flag == SUCCESS_FLAG

    @property
    def is_series_member(self) -> bool:
        """Algorithm 2's SUCCESS predicate: head candidate or marked successor."""
        return self.is_head_candidate or self.is_successor

    def words(self) -> List[bytes]:
        return [self.flag, self.previous_mark, self.value]


@record
class AMV:
    """The (address, mark, value) view of a transaction or of contract storage."""

    address: bytes
    mark: bytes
    value: bytes

    def words(self) -> List[bytes]:
        return [to_bytes32(self.address), self.mark, self.value]


def fpv_from_calldata(calldata: bytes, expected_selector: Optional[bytes] = None) -> FPV:
    """Extract the FPV from a Sereth transaction's calldata.

    The calldata layout is ``selector || flag || previous_mark || value``
    (Section III-C: "each element is stored in a contiguous 32 bytes within
    input").  Raises ``ValueError`` if the layout does not fit or the selector
    does not match.
    """
    if len(calldata) < 4 + 3 * WORD_SIZE:
        raise ValueError("calldata too short to contain an FPV")
    if expected_selector is not None and calldata[:4] != expected_selector:
        raise ValueError("calldata selector does not match the expected function")
    body = calldata[4:]
    return FPV(
        flag=body[0:WORD_SIZE],
        previous_mark=body[WORD_SIZE : 2 * WORD_SIZE],
        value=body[2 * WORD_SIZE : 3 * WORD_SIZE],
    )


def fpv_to_words(flag: bytes, previous_mark: bytes, value: object) -> List[bytes]:
    """Build the ``bytes32[3]`` argument for a Sereth call from loose values."""
    return [to_bytes32(flag), to_bytes32(previous_mark), to_bytes32(value)]
