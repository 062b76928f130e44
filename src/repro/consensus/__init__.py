"""Consensus layer: block interval models, miner ordering policies, block assembly."""

from .interval import (
    DEFAULT_BLOCK_INTERVAL_SECONDS,
    BlockIntervalModel,
    FixedInterval,
    PoissonInterval,
)
from .miner import Miner, MinerConfig
from .policies import (
    ArrivalJitterPolicy,
    FeeArrivalPolicy,
    FifoPolicy,
    OrderingPolicy,
    RandomPolicy,
    merge_sender_queues,
)

__all__ = [
    "DEFAULT_BLOCK_INTERVAL_SECONDS",
    "BlockIntervalModel",
    "FixedInterval",
    "PoissonInterval",
    "Miner",
    "MinerConfig",
    "ArrivalJitterPolicy",
    "FeeArrivalPolicy",
    "FifoPolicy",
    "OrderingPolicy",
    "RandomPolicy",
    "merge_sender_queues",
]
