"""Latency models for gossip delivery between peers.

The Sereth view quality "is subject to network synchronization" (Section
II-C): if TxPool gossip is slow or impaired, a peer's HMS view lags the true
concurrent history and more transactions fail.  The ablation A2 sweeps these
models.
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
    "NormalLatency",
    "ImpairedLatency",
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


class NormalLatency:
    """Gaussian latency with a floor, modelling a typical WAN distribution."""

    def __init__(
        self,
        mean: float = 0.1,
        stddev: float = 0.03,
        minimum: float = 0.005,
        seed: Optional[int] = None,
    ) -> None:
        if mean < 0 or stddev < 0 or minimum < 0:
            raise ValueError("latency parameters cannot be negative")
        self.mean = mean
        self.stddev = stddev
        self.minimum = minimum
        self._rng = _seeded_rng(seed)

    def sample(self, source_id: str, destination_id: str) -> float:
        return max(self.minimum, self._rng.gauss(self.mean, self.stddev))


class ImpairedLatency:
    """Wraps another model, adding a fixed impairment on selected links.

    Used by the gossip-impairment ablation: traffic to/from the listed peer
    ids suffers ``extra_delay`` additional seconds, modelling a Sereth peer
    whose view of the TxPool is systematically behind.
    """

    def __init__(self, base: LatencyModel, impaired_peers: set, extra_delay: float) -> None:
        if extra_delay < 0:
            raise ValueError("extra delay cannot be negative")
        self.base = base
        self.impaired_peers = set(impaired_peers)
        self.extra_delay = extra_delay

    def sample(self, source_id: str, destination_id: str) -> float:
        delay = self.base.sample(source_id, destination_id)
        if source_id in self.impaired_peers or destination_id in self.impaired_peers:
            delay += self.extra_delay
        return delay
