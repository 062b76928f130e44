"""The dynamic-pricing market workload of the paper's evaluation (Section V).

Reproduces the experimental shape exactly: each data point is 100 ``buy``
transactions submitted at a fixed interval (one second in the paper), with
the ``set`` transactions "evenly spaced over the processing of the buys";
the number of sets is varied to sweep the buy:set ratio from 1:1 to 20:1.
"The price changes frequently and unpredictably due to market dynamics"
(Section II-F): each set draws its price from a seeded bounded random walk.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

from ..api.registry import register_workload
from ..api.spec import _POSITIVE, _checked, _integer
from ..clients.market import Buyer
from .base import COUNT, SECONDS, TIME, SimulationContext, Workload, submit_watched

__all__ = ["BUY_LABEL", "SET_LABEL", "MarketSimWorkload", "RandomWalkPrices"]

BUY_LABEL = "buy"
SET_LABEL = "set"
PRICE_FLOOR, PRICE_CEILING = 1, 10_000
_PRICE = _checked(
    _integer,
    lambda price: PRICE_FLOOR <= price <= PRICE_CEILING,
    f"in [{PRICE_FLOOR}, {PRICE_CEILING}]",
)

OPENING_SET_AT = 0.2 + 0.1
"""When the opening price goes out (deploy time plus one warm-up step, kept
as that sum: the golden digests pin its float), well before trading so it
commits first."""


class RandomWalkPrices:
    """A bounded integer random walk: price moves by ±[1, max_step] each set."""

    def __init__(
        self,
        initial: int = 100,
        max_step: int = 5,
        minimum: int = PRICE_FLOOR,
        maximum: int = PRICE_CEILING,
        seed: int = 0,
    ) -> None:
        if initial < minimum or initial > maximum:
            raise ValueError("initial price must lie within [minimum, maximum]")
        if max_step <= 0:
            raise ValueError("max_step must be positive")
        self.current = initial
        self.max_step = max_step
        self.minimum = minimum
        self.maximum = maximum
        self._rng = random.Random(seed)

    def next_price(self) -> int:
        step = self._rng.randint(1, self.max_step)
        if self._rng.random() < 0.5:
            step = -step
        self.current = min(self.maximum, max(self.minimum, self.current + step))
        return self.current


@register_workload("market")
class MarketSimWorkload(Workload):
    """The dynamic-pricing buy/set workload of the paper's evaluation."""

    name = "market"
    primary_label = BUY_LABEL
    params = (
        ("num_buys", COUNT, 100, 10_000),
        # The READ-UNCOMMITTED/WRITE ratio of Figure 2 (1.0 = 1:1 … 20.0 = 20:1).
        ("buys_per_set", _POSITIVE, 1.0),
        # Seconds between successive buy submissions (the paper used one second).
        ("submission_interval", SECONDS, 1.0),
        # When the first buy goes out: room for the opening price to commit.
        ("start_time", TIME, 30.0),
        ("initial_price", _PRICE, 100),
        ("price_max_step", COUNT, 5),
        ("num_buyers", COUNT, 4, 256),
    )
    served_counts = (("num_sets", 10_000),)

    @property
    def expected_watched(self) -> int:
        return self.num_buys

    @property
    def num_sets(self) -> int:
        """Number of price changes during the buy window."""
        return max(1, round(self.num_buys / self.buys_per_set))

    def account_labels(self) -> List[str]:
        return [self.owner] + [f"buyer-{index}" for index in range(self.num_buyers)]

    def setup(self, context: SimulationContext) -> None:
        spec = self.spec
        client_peers = context.client_peers
        self.setter = self.owner_setter(context, gas_limit=spec.transaction_gas_limit)
        self.buyers = [
            Buyer(
                f"buyer-{index}",
                client_peers[index % len(client_peers)],
                context.simulator,
                self.contract,
                read_mode=spec.scenario.buyer_read_mode,
                gas_limit=spec.transaction_gas_limit,
            )
            for index in range(self.num_buyers)
        ]
        self.prices = RandomWalkPrices(
            initial=self.initial_price, max_step=self.price_max_step, seed=context.seeds.prices
        )

    def schedule(self, context: SimulationContext) -> None:
        simulator, metrics, setter = context.simulator, context.metrics, self.setter
        simulator.schedule_at(
            OPENING_SET_AT,
            submit_watched(metrics, SET_LABEL, lambda: setter.set_price(self.initial_price)),
        )
        # Buys: one every submission_interval, buyers round-robin.
        for buy_index in range(self.num_buys):
            buyer = self.buyers[buy_index % len(self.buyers)]
            simulator.schedule_at(
                self.start_time + buy_index * self.submission_interval,
                submit_watched(metrics, BUY_LABEL, buyer.buy),
            )
        # Sets: evenly spaced over the processing of the buys, offset by half
        # a spacing so they interleave the buys rather than coinciding with
        # the first one.
        spacing = self.num_buys * self.submission_interval / self.num_sets
        for set_index in range(self.num_sets):
            simulator.schedule_at(
                self.start_time + (set_index + 0.5) * spacing,
                submit_watched(
                    metrics, SET_LABEL, lambda: setter.set_price(self.prices.next_price())
                ),
            )

    @property
    def end_of_submissions(self) -> float:
        return self.start_time + self.num_buys * self.submission_interval

    def finalize(self, context: SimulationContext) -> Dict[str, Any]:
        return {"contract": self.contract}
