"""Hash-Mark-Set: the paper's core algorithm (Algorithms 1-3) and semantic mining."""

from .fpv import (
    AMV,
    BUY_FLAG,
    EMPTY_POOL_SENTINEL,
    FPV,
    HEAD_FLAG,
    SUCCESS_FLAG,
    compute_mark,
    fpv_from_calldata,
    fpv_to_words,
)
from .hash_mark_set import HashMarkSet, HMSView
from .node import TxNode
from .process import HMSConfig, process_transactions
from .semantic import SemanticMiningConfig, SemanticMiningPolicy
from .series import (
    Series,
    build_series,
    deepest_branch_iterative,
)

__all__ = [
    "AMV",
    "BUY_FLAG",
    "EMPTY_POOL_SENTINEL",
    "FPV",
    "HEAD_FLAG",
    "SUCCESS_FLAG",
    "compute_mark",
    "fpv_from_calldata",
    "fpv_to_words",
    "HashMarkSet",
    "HMSView",
    "TxNode",
    "HMSConfig",
    "process_transactions",
    "SemanticMiningConfig",
    "SemanticMiningPolicy",
    "Series",
    "build_series",
    "deepest_branch_iterative",
]
