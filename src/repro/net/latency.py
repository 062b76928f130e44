"""Latency models for gossip delivery between peers.

The Sereth view quality "is subject to network synchronization" (Section
II-C): if TxPool gossip is slow, a peer's HMS view lags the true concurrent
history and more transactions fail.  The engine wires ``UniformLatency`` from
the spec's gossip knobs (the ``gossip`` ablation sweeps them);
``ConstantLatency`` is ``Network``'s default.
"""

from __future__ import annotations

import random
from typing import Optional, Protocol

def _seeded_rng(seed: Optional[int]) -> random.Random:
    """An RNG for one model instance.

    ``seed=None`` draws fresh OS entropy, so two models built without an
    explicit seed never share a stream.  (The old default of ``seed=0`` made
    every unseeded instance replay the *same* sequence — a silent correlation
    between supposedly independent links.)  Reproducible runs must thread a
    spec-derived seed, as :class:`repro.api.engine.SimulationHandle` does via
    :class:`~repro.api.seeding.SeedPlan`.
    """
    return random.Random(seed)

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
]


class LatencyModel(Protocol):
    """Samples a one-way delivery delay between two peers."""

    def sample(self, source_id: str, destination_id: str) -> float:
        ...


class ConstantLatency:
    """Every delivery takes exactly ``delay`` seconds."""

    def __init__(self, delay: float = 0.05) -> None:
        if delay < 0:
            raise ValueError("latency cannot be negative")
        self.delay = delay

    def sample(self, source_id: str, destination_id: str) -> float:
        return self.delay


class UniformLatency:
    """Deliveries take a uniform random time in [low, high] seconds.

    ``sample`` is ``Random.uniform``'s own ``low + (high - low) * random()``
    with the span and bound method taken once: the same bits, fewer calls."""

    def __init__(
        self, low: float = 0.02, high: float = 0.2, seed: Optional[int] = None
    ) -> None:
        if low < 0 or high < low:
            raise ValueError("require 0 <= low <= high")
        self.low = low
        self.high = high
        self._span = high - low
        self._random = _seeded_rng(seed).random

    def sample(self, source_id: str, destination_id: str) -> float:
        return self.low + self._span * self._random()
