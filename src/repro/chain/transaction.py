"""Transactions: signed messages that may change ledger state.

A transaction mirrors the Ethereum format: (nonce, gas_price, gas_limit,
to, value, data) plus the sender.  Real Ethereum recovers the sender from an
ECDSA signature; we attach the sender directly and derive a deterministic
pseudo-signature over the canonical fields so that tampering with calldata
after signing is detectable — this is what enforces the paper's RAA
restriction (RAA cannot modify the arguments of a transaction, only of a
pure/view call).

A transaction is immutable, so it derives its bytes once: ``__post_init__``
RLP-encodes the seven canonical fields into one *body*, and the signing
payload, the hash preimage and the wire form are that body with a suffix
appended and a list header in front (:func:`repro.encoding.rlp.rlp_list`).
The byte layouts are exactly ``rlp_encode`` over the written-out field
lists.  What is cached is bytes, never a verdict: ``signature_is_valid``
re-hashes the payload and compares on every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from ..crypto.addresses import Address, is_address
from ..crypto.keccak import keccak256
from ..encoding.hexutil import to_hex
from ..encoding.rlp import rlp_list, rlp_payload
from .errors import InvalidTransaction
from .gas import DEFAULT_GAS_SCHEDULE, GasSchedule

__all__ = ["Transaction", "sign_transaction", "TIMESTAMP_SCALE"]

_SIGNATURE_DOMAIN = b"repro/tx-signature/"

TIMESTAMP_SCALE = 1_000_000
"""Timestamps travel as integer microseconds (RLP has no float type)."""


def _canonical_body(
    sender: Address,
    nonce: int,
    to: Optional[Address],
    value: int,
    gas_price: int,
    gas_limit: int,
    data: bytes,
) -> bytes:
    """RLP list payload (no header) of the seven signed fields."""
    return rlp_payload(
        (sender, nonce, to if to is not None else b"", value, gas_price, gas_limit, data)
    )


def _sign_body(sender: Address, body: bytes) -> bytes:
    return keccak256(_SIGNATURE_DOMAIN, sender, rlp_list(body))


def sign_transaction(
    sender: Address,
    nonce: int,
    to: Optional[Address],
    value: int,
    gas_price: int,
    gas_limit: int,
    data: bytes,
) -> bytes:
    """Produce the deterministic pseudo-signature over the canonical fields."""
    return _sign_body(sender, _canonical_body(sender, nonce, to, value, gas_price, gas_limit, data))


@dataclass(frozen=True)
class Transaction:
    """An immutable blockchain transaction.

    ``submitted_at`` is simulation metadata (seconds on the discrete-event
    clock when the originating client created the transaction); it is not
    part of the signed payload or the hash, mirroring how real networks
    carry no trustworthy submission timestamp.
    """

    sender: Address
    nonce: int
    to: Optional[Address]
    value: int = 0
    gas_price: int = 1
    gas_limit: int = 100_000
    data: bytes = b""
    signature: bytes = b""
    submitted_at: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        if not is_address(self.sender):
            raise InvalidTransaction("transaction sender must be a 20-byte address")
        if self.to is not None and not is_address(self.to):
            raise InvalidTransaction("transaction recipient must be a 20-byte address or None")
        if self.nonce < 0:
            raise InvalidTransaction("transaction nonce must be non-negative")
        if self.value < 0:
            raise InvalidTransaction("transaction value must be non-negative")
        if self.gas_price < 0 or self.gas_limit <= 0:
            raise InvalidTransaction("gas price must be >= 0 and gas limit > 0")
        body = _canonical_body(
            self.sender, self.nonce, self.to, self.value,
            self.gas_price, self.gas_limit, self.data,
        )
        object.__setattr__(self, "_body", body)
        if not self.signature:
            object.__setattr__(self, "signature", _sign_body(self.sender, body))

    @cached_property
    def hash(self) -> bytes:
        """Keccak-256 hash of the RLP-encoded canonical fields + signature.

        Computed once: transactions are immutable and their hashes are
        looked up constantly (pool membership, receipts, metrics).
        """
        return keccak256(rlp_list(self._body + rlp_payload((self.signature,))))

    @cached_property
    def wire(self) -> bytes:
        """The wire form: canonical fields, signature and submission time
        (integer microseconds) as one RLP list.  Computed once; gossip
        accounting and every block that carries the transaction reuse it."""
        suffix = rlp_payload((self.signature, int(self.submitted_at * TIMESTAMP_SCALE)))
        return rlp_list(self._body + suffix)

    @property
    def is_contract_creation(self) -> bool:
        return self.to is None

    @property
    def selector(self) -> bytes:
        """The first four bytes of calldata (empty if no calldata)."""
        return self.data[:4]

    def signature_is_valid(self) -> bool:
        """Check that the signature covers the current field values.

        A transaction whose calldata was altered after signing (e.g. by an
        RAA provider overstepping its bounds) fails this check and is
        rejected by validating peers.
        """
        return self.signature == _sign_body(self.sender, self._body)

    def intrinsic_gas(self, schedule: Optional[GasSchedule] = None) -> int:
        """Gas charged before execution: base cost plus calldata bytes, priced
        by ``schedule`` (the executing engine's) or the default schedule."""
        if schedule is None:
            schedule = DEFAULT_GAS_SCHEDULE
        zero_bytes = self.data.count(0)
        nonzero_bytes = len(self.data) - zero_bytes
        return (
            schedule.tx_base
            + zero_bytes * schedule.calldata_zero_byte
            + nonzero_bytes * schedule.calldata_nonzero_byte
        )

    def with_data(self, data: bytes) -> "Transaction":
        """Return a copy with different calldata but the *original* signature.

        Used by tests/experiments that model a malicious or buggy client
        mutating a signed transaction; the result fails signature validation.
        """
        return Transaction(
            sender=self.sender,
            nonce=self.nonce,
            to=self.to,
            value=self.value,
            gas_price=self.gas_price,
            gas_limit=self.gas_limit,
            data=data,
            signature=self.signature,
            submitted_at=self.submitted_at,
        )

    def short_hash(self) -> str:
        """First 8 hex characters of the hash, for logs and traces."""
        return self.hash.hex()[:8]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        to_text = to_hex(self.to)[:10] if self.to is not None else "CREATE"
        return (
            f"Transaction(hash={self.short_hash()}, sender={to_hex(self.sender)[:10]}, "
            f"nonce={self.nonce}, to={to_text}, value={self.value})"
        )
