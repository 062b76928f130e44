"""Arrival processes: when workload events (buys, queries) are submitted.

The paper submits buys at a fixed one-second interval; real client traffic
is rarely that regular.  These processes generate submission times for a
given number of events so experiments can explore regular, Poisson, and
bursty arrivals (the submission-interval ablation uses the regular process;
the others are available for sensitivity studies).
"""

from __future__ import annotations

import random
from typing import List

__all__ = [
    "RegularArrivals",
    "PoissonArrivals",
    "BurstyArrivals",
]


class RegularArrivals:
    """One event every ``interval`` seconds — the paper's submission pattern."""

    def __init__(self, interval: float = 1.0) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval

    def times(self, count: int, start: float) -> List[float]:
        if count < 0:
            raise ValueError("count must be non-negative")
        return [start + index * self.interval for index in range(count)]


class PoissonArrivals:
    """Exponentially distributed gaps with the given mean (memoryless clients)."""

    def __init__(self, mean_interval: float = 1.0, seed: int = 0) -> None:
        if mean_interval <= 0:
            raise ValueError("mean interval must be positive")
        self.mean_interval = mean_interval
        self._rng = random.Random(seed)

    def times(self, count: int, start: float) -> List[float]:
        if count < 0:
            raise ValueError("count must be non-negative")
        current = start
        times: List[float] = []
        for _ in range(count):
            current += self._rng.expovariate(1.0 / self.mean_interval)
            times.append(current)
        return times


class BurstyArrivals:
    """Events arrive in bursts: ``burst_size`` events packed tightly, then a gap.

    Models the thundering-herd pattern of the paper's motivating example
    ("if 100 orders are received at the published price near the start of a
    block interval"): many clients react to the same price publication at
    nearly the same time.
    """

    def __init__(
        self,
        burst_size: int = 10,
        gap: float = 10.0,
        spread: float = 0.5,
        seed: int = 0,
    ) -> None:
        if burst_size <= 0:
            raise ValueError("burst size must be positive")
        if gap <= 0 or spread < 0:
            raise ValueError("gap must be positive and spread non-negative")
        self.burst_size = burst_size
        self.gap = gap
        self.spread = spread
        self._rng = random.Random(seed)

    def times(self, count: int, start: float) -> List[float]:
        if count < 0:
            raise ValueError("count must be non-negative")
        times: List[float] = []
        burst_start = start
        emitted = 0
        while emitted < count:
            for _ in range(min(self.burst_size, count - emitted)):
                offset = self._rng.uniform(0.0, self.spread) if self.spread else 0.0
                times.append(burst_start + offset)
                emitted += 1
            burst_start += self.gap
        return sorted(times)
