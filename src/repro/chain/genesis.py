"""Genesis configuration: the initial world state and block zero."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..crypto.addresses import Address, ZERO_ADDRESS, address_from_label
from ..memo import bounded_memo
from .account import Account
from .block import Block, BlockHeader, transactions_root
from .receipt import receipts_root
from .state import WorldState

__all__ = [
    "ContractAllocation",
    "GenesisConfig",
    "build_genesis",
    "build_genesis_cached",
    "genesis_digest",
]

DEFAULT_INITIAL_BALANCE = 10**24
"""One million ether (in wei) — ample for every experiment workload."""


@dataclass
class ContractAllocation:
    """A contract pre-deployed in the genesis state.

    ``storage`` maps 32-byte slots to 32-byte values and must contain
    whatever the contract's constructor would have written; pre-deployment
    bypasses constructors (exactly like a genesis ``alloc`` with code and
    storage in a real Ethereum genesis file).
    """

    code_name: str
    storage: Dict[bytes, bytes] = field(default_factory=dict)
    balance: int = 0


@dataclass
class GenesisConfig:
    """Describes the initial allocation and chain parameters."""

    allocations: Dict[Address, int] = field(default_factory=dict)
    contracts: Dict[Address, ContractAllocation] = field(default_factory=dict)
    gas_limit: int = 8_000_000
    difficulty: int = 1
    timestamp: float = 0.0
    extra_data: bytes = b"repro genesis"

    @classmethod
    def for_labels(
        cls, labels: List[str], balance: int = DEFAULT_INITIAL_BALANCE, **kwargs
    ) -> "GenesisConfig":
        """Convenience: fund one account per human-readable label."""
        allocations = {address_from_label(label): balance for label in labels}
        return cls(allocations=allocations, **kwargs)

    def fund(self, address: Address, balance: int = DEFAULT_INITIAL_BALANCE) -> "GenesisConfig":
        """Add or update an allocation, returning self for chaining."""
        self.allocations[address] = balance
        return self

    def deploy_contract(
        self,
        address: Address,
        code_name: str,
        storage: Optional[Dict[bytes, bytes]] = None,
        balance: int = 0,
    ) -> "GenesisConfig":
        """Pre-deploy a contract in the genesis state, returning self for chaining."""
        self.contracts[address] = ContractAllocation(
            code_name=code_name, storage=dict(storage or {}), balance=balance
        )
        return self


def build_genesis(config: GenesisConfig) -> Tuple[Block, WorldState]:
    """Construct the genesis block and the corresponding world state."""
    state = WorldState()
    for address, balance in sorted(config.allocations.items()):
        account = state.get_or_create_account(address)
        account.balance = balance
    for address, allocation in sorted(config.contracts.items()):
        account = state.get_or_create_account(address)
        account.code = allocation.code_name
        account.balance = allocation.balance
        for slot, value in allocation.storage.items():
            account.set_storage(slot, value)
    header = BlockHeader(
        parent_hash=b"\x00" * 32,
        number=0,
        timestamp=config.timestamp,
        miner=ZERO_ADDRESS,
        state_root=state.state_root(),
        transactions_root=transactions_root([]),
        receipts_root=receipts_root([]),
        difficulty=config.difficulty,
        gas_limit=config.gas_limit,
        gas_used=0,
        extra_data=config.extra_data,
    )
    return Block(header=header, transactions=[], receipts=[]), state


def genesis_digest(config: GenesisConfig) -> bytes:
    """Content digest of a genesis configuration (the template cache key).

    Keyed by *content*, not object identity, so a caller that mutates a
    config after building from it simply lands on a different cache entry.
    """
    payload = repr(
        (
            sorted(config.allocations.items()),
            sorted(
                (
                    address,
                    allocation.code_name,
                    sorted(allocation.storage.items()),
                    allocation.balance,
                )
                for address, allocation in config.contracts.items()
            ),
            config.gas_limit,
            config.difficulty,
            config.timestamp,
            config.extra_data,
        )
    ).encode("utf-8")
    return hashlib.sha256(payload).digest()


class _ByDigest:
    """A config as a memo key: hashed and compared by its content digest."""

    def __init__(self, config: GenesisConfig) -> None:
        self.config = config
        self.digest = genesis_digest(config)

    def __hash__(self) -> int:
        return hash(self.digest)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _ByDigest) and self.digest == other.digest


@bounded_memo("genesis", 32)
def _genesis_template(key: _ByDigest) -> Tuple[Block, WorldState]:
    return build_genesis(key.config)


def build_genesis_cached(config: GenesisConfig) -> Tuple[Block, WorldState]:
    """Per-process memo over :func:`build_genesis`, keyed by content digest.

    Sweep workers build the same genesis for every peer of every trial of a
    grid cell; this returns one shared frozen template instead.  Callers
    MUST treat the returned state as immutable and work on ``fork()``s of
    it (which is what :class:`~repro.chain.chain.Blockchain` does).
    """
    return _genesis_template(_ByDigest(config))
