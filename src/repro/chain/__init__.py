"""Blockchain substrate: accounts, transactions, blocks, state, and the chain."""

from .account import Account
from .block import Block, BlockHeader, transactions_root
from .chain import Blockchain, ChainAnchor, execute_transactions
from .errors import (
    ChainError,
    InsufficientBalance,
    InvalidBlock,
    InvalidTransaction,
    NonceError,
    PrunedHistoryError,
    UnknownAccount,
    ValidationError,
)
from .executor import BlockContext, TransactionExecutor
from .gas import GasMeter, GasSchedule, OutOfGas
from .apply_cache import BlockApplyCache
from .genesis import (
    DEFAULT_INITIAL_BALANCE,
    ContractAllocation,
    GenesisConfig,
    build_genesis,
    build_genesis_cached,
    genesis_digest,
)
from .receipt import LogEntry, Receipt, receipts_root
from .state import StateSnapshot, WorldState, live_state_stats
from .transaction import Transaction, sign_transaction
from .trie import ordered_trie_root
from .wire import wire_cache_stats, wire_encoding

__all__ = [
    "Account",
    "Block",
    "BlockHeader",
    "transactions_root",
    "Blockchain",
    "ChainAnchor",
    "execute_transactions",
    "ChainError",
    "InsufficientBalance",
    "InvalidBlock",
    "InvalidTransaction",
    "NonceError",
    "PrunedHistoryError",
    "UnknownAccount",
    "ValidationError",
    "BlockContext",
    "TransactionExecutor",
    "GasMeter",
    "GasSchedule",
    "OutOfGas",
    "DEFAULT_INITIAL_BALANCE",
    "ContractAllocation",
    "GenesisConfig",
    "build_genesis",
    "build_genesis_cached",
    "genesis_digest",
    "BlockApplyCache",
    "LogEntry",
    "Receipt",
    "receipts_root",
    "StateSnapshot",
    "WorldState",
    "live_state_stats",
    "Transaction",
    "sign_transaction",
    "ordered_trie_root",
    "wire_encoding",
    "wire_cache_stats",
]
