"""Account records for the world state.

An account is either externally owned (EOA: has a nonce and balance) or a
contract account (additionally holds code — here, the registered contract
class name — and a storage mapping of 32-byte slots to 32-byte values).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..crypto.addresses import Address
from ..crypto.keccak import keccak256
from ..encoding.rlp import rlp_encode

__all__ = ["Account", "StorageSlot"]

StorageSlot = bytes
"""A 32-byte storage key."""


@dataclass
class Account:
    """Mutable account state stored in the :class:`~repro.chain.state.WorldState`."""

    nonce: int = 0
    balance: int = 0
    code: Optional[str] = None
    storage: Dict[StorageSlot, bytes] = field(default_factory=dict)

    def copy(self) -> "Account":
        """Return a deep copy (storage dict included, encoding memos not)."""
        return Account(
            nonce=self.nonce,
            balance=self.balance,
            code=self.code,
            storage=dict(self.storage),
        )

    def drop_encoding_cache(self) -> None:
        """Invalidate the memoised RLP encoding before a mutation.

        :meth:`WorldState.touch` calls this on every account it hands out
        for writing; accounts shared between copy-on-write states are never
        mutated, which is what makes the memo safe.
        """
        self.__dict__.pop("_encoded", None)
        self.__dict__.pop("_storage_root", None)

    def storage_root(self) -> bytes:
        """Deterministic commitment to the account's storage contents."""
        cached = self.__dict__.get("_storage_root")
        if cached is None:
            items = sorted(self.storage.items())
            cached = keccak256(rlp_encode([[key, value] for key, value in items]))
            self.__dict__["_storage_root"] = cached
        return cached

    def encode(self) -> bytes:
        """RLP-encode the account for inclusion in the state root (memoised;
        the memo is dropped whenever the account is touched for mutation)."""
        cached = self.__dict__.get("_encoded")
        if cached is None:
            code_hash = keccak256(self.code.encode("utf-8")) if self.code else keccak256(b"")
            cached = rlp_encode([self.nonce, self.balance, self.storage_root(), code_hash])
            self.__dict__["_encoded"] = cached
        return cached

    def get_storage(self, slot: StorageSlot) -> bytes:
        """Read a storage slot; absent slots read as 32 zero bytes."""
        return self.storage.get(slot, b"\x00" * 32)

    def set_storage(self, slot: StorageSlot, value: bytes) -> None:
        """Write a storage slot.  Writing all-zero deletes the slot."""
        if len(slot) != 32 or len(value) != 32:
            raise ValueError("storage slots and values must be 32 bytes")
        self.drop_encoding_cache()
        if value == b"\x00" * 32:
            self.storage.pop(slot, None)
        else:
            self.storage[slot] = value
