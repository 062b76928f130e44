"""``steady_state`` — a constant trickle of traffic over an arbitrarily long horizon."""

from __future__ import annotations

from typing import Any, Dict

from ..api.registry import register_workload
from ..api.spec import _integer
from .base import COUNT, TIME, SimulationContext, Workload

__all__ = ["STEADY_LABEL", "SteadyStateWorkload"]

STEADY_LABEL = "steady"


@register_workload("steady_state")
class SteadyStateWorkload(Workload):
    """A fixed-rate drip of ``set`` transactions over ``num_blocks`` blocks.

    The other workloads are *finite*: they submit a bounded batch and the run
    ends when the batch settles.  This one is shaped for the memory-model
    experiments — the horizon is measured in **blocks**, the traffic rate is
    constant (one ``set`` every ``blocks_per_set`` block intervals, all from
    the single owner account, so every transaction succeeds), and per-block
    work is tiny.  Run it for 50k+ blocks with ``retention=`` set and RSS
    stays flat; run it unretained and history growth dominates.
    """

    name = "steady_state"
    primary_label = STEADY_LABEL
    params = (
        ("num_blocks", COUNT, 1000, 100_000),
        ("blocks_per_set", COUNT, 8),
        ("start_time", TIME, 1.0),
        ("initial_price", _integer, 100),
    )

    @property
    def num_sets(self) -> int:
        return max(1, self.num_blocks // self.blocks_per_set)

    @property
    def expected_watched(self) -> int:
        return self.num_sets

    def setup(self, context: SimulationContext) -> None:
        self.setter = self.owner_setter(context, gas_limit=self.spec.transaction_gas_limit)

    def schedule(self, context: SimulationContext) -> None:
        interval = self.blocks_per_set * self.spec.block_interval
        setter, metrics = self.setter, context.metrics

        def make_set(price: int):
            def fire() -> None:
                transaction = setter.set_price(price)
                metrics.watch(transaction, STEADY_LABEL, submitted_at=transaction.submitted_at)
                # PriceSetter (and the client base) keep audit lists of every
                # transaction submitted; nothing in this workload reads them,
                # and over a 100k-block horizon they are a leak, so drop them
                # as we go.
                setter.set_transactions.clear()
                setter.sent_transactions.clear()

            return fire

        for index in range(self.num_sets):
            # Prices walk a small modular ramp so consecutive sets differ
            # (identical values would still chain marks, but distinct values
            # keep every block's post-state distinct — the honest worst case
            # for state retention).
            price = self.initial_price + index % 97
            context.simulator.schedule_at(self.start_time + index * interval, make_set(price))

    @property
    def end_of_submissions(self) -> float:
        # The horizon is measured in blocks, not submissions: keep producing
        # (mostly empty) blocks until ``num_blocks`` intervals have elapsed.
        return self.start_time + self.num_blocks * self.spec.block_interval

    def natural_duration(self, spec) -> float:
        return self.end_of_submissions + (spec.settle_blocks + 4) * spec.block_interval

    def finalize(self, context: SimulationContext) -> Dict[str, Any]:
        return {"contract": self.contract, "num_blocks": self.num_blocks}
