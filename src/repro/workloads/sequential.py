"""``sequential`` — the single-sender sanity experiment (Section V).

One account alternates set/buy, so nonce order pins the history.  It
installs HMS but gives semantic miners no config (``buy_selectors = None``):
under ``semantic_mining`` its miners keep arrival-jitter order.
"""

from __future__ import annotations

from ..api.registry import register_workload
from ..contracts.sereth import SerethContract
from ..core.hms.fpv import BUY_FLAG
from ..encoding.hexutil import to_bytes32
from .base import COUNT, SECONDS, SimulationContext, Workload
from .market import BUY_LABEL, SET_LABEL

__all__ = ["SequentialHistoryWorkload"]

_SERETH_BUY_ABI = SerethContract.function_by_name("buy").abi


@register_workload("sequential")
class SequentialHistoryWorkload(Workload):
    """One account alternates set/buy; nonce order pins the history."""

    name = "sequential"
    owner = "solo-trader"
    buy_selectors = None
    params = (
        ("num_pairs", COUNT, 25, 10_000),
        ("submission_interval", SECONDS, 1.0),
    )

    @property
    def expected_watched(self) -> int:
        return 2 * self.num_pairs

    def setup(self, context: SimulationContext) -> None:
        self.setter = self.owner_setter(context)

    def schedule(self, context: SimulationContext) -> None:
        simulator, metrics = context.simulator, context.metrics
        setter = self.setter

        def make_pair(pair_index: int):
            price = 100 + pair_index

            def fire() -> None:
                set_transaction = setter.set_price(price)
                metrics.watch(set_transaction, SET_LABEL, submitted_at=set_transaction.submitted_at)
                # Issued by the same account immediately after its set,
                # referencing the mark that set will install.
                offer = [BUY_FLAG, setter._last_mark, to_bytes32(price)]
                calldata = _SERETH_BUY_ABI.encode_call(offer)
                buy_transaction = setter.send_transaction(to=self.contract, data=calldata)
                metrics.watch(buy_transaction, BUY_LABEL, submitted_at=buy_transaction.submitted_at)

            return fire

        for pair_index in range(self.num_pairs):
            simulator.schedule_at(
                1.0 + pair_index * self.submission_interval, make_pair(pair_index)
            )

    @property
    def end_of_submissions(self) -> float:
        return 1.0 + self.num_pairs * self.submission_interval

    def natural_duration(self, spec) -> float:
        return self.end_of_submissions + 8 * spec.block_interval
