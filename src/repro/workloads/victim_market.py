"""``victim_market`` — an attackable market with no built-in attacker — and
``frontrunning``, the same market with its historical hard-coded attacker."""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List

from ..adversary.strategies import VICTIM_BUY_LABEL, FrontrunningAttacker
from ..api.registry import register_workload
from ..api.spec import _checked, _integer, _optional, _text
from ..clients.market import READ_COMMITTED, READ_UNCOMMITTED, Buyer
from ..contracts.sereth import BUY_SELECTOR, SET_SELECTOR, initial_mark
from ..core.audit import AuditCursor, ChainAuditor
from .base import COUNT, SECONDS, SimulationContext, Workload, submit_watched

__all__ = ["VictimMarketWorkload", "FrontrunningWorkload", "victim_columns"]

_READ_MODE = _checked(
    _text,
    (READ_COMMITTED, READ_UNCOMMITTED).__contains__,
    f"a read mode in {(READ_COMMITTED, READ_UNCOMMITTED)}",
)


def victim_columns() -> Dict[str, Callable[[Dict[str, Any]], Any]]:
    """The victim's :class:`~repro.api.frame.ResultFrame` columns, derived the
    same way by every experiment on this market: buys submitted and filled,
    the harm (buys that did not fill at the observed terms) and the audit's
    overpaid fills."""

    def victim(row, key):
        return row["summary"]["reports"][VICTIM_BUY_LABEL][key]

    return {
        "victim_submitted": lambda row: victim(row, "submitted"),
        "victim_filled": lambda row: victim(row, "successful"),
        "victim_harm": lambda row: victim(row, "submitted") - victim(row, "successful"),
        "overpaid": lambda row: row["summary"]["extras"].get("overpaid", 0),
    }


@register_workload("victim_market")
class VictimMarketWorkload(Workload):
    """An owner prices a Sereth market; a victim buys at the terms it observes.

    The attack-surface workload of the adversary matrix: it drives no attack
    itself, so whatever harm the victim suffers is attributable to the
    adversaries the spec plugs in.  The ``frontrunning`` workload subclasses
    this with its historical hard-coded attacker.
    """

    name = "victim_market"
    owner = "market-owner"
    primary_label = VICTIM_BUY_LABEL
    params = (
        ("num_victim_buys", COUNT, 40, 10_000),
        ("buy_interval", SECONDS, 2.0),
        ("victim_read_mode", _optional(_READ_MODE), None),
        ("initial_price", COUNT, 100),
        # A moving market: delay-based attacks (suppression, censorship)
        # only bite when the terms a victim observed can go stale.
        ("reprice_interval", _optional(SECONDS), None),
        ("reprice_step", _integer, 5),
    )
    served_counts = (("reprice_steps", 100_000),)

    @property
    def reprice_steps(self) -> int:
        """An upper bound on the reprices ``schedule`` books.  The exact count
        is ``ceil(x) - 1`` for ``x = (end_of_submissions - 0.5) / interval``;
        the loop accumulates its times in floating point and can book one
        more, which ``floor(x) + 1`` still covers."""
        if self.reprice_interval is None:
            return 0
        return math.floor((self.end_of_submissions - 0.5) / self.reprice_interval) + 1

    @property
    def expected_watched(self) -> int:
        return self.num_victim_buys

    def account_labels(self) -> List[str]:
        return [self.owner, "victim"]

    def setup(self, context: SimulationContext) -> None:
        # The reference chain audits each block as it imports it, so the
        # audit needs no history and holds under retention.
        self.audit = AuditCursor(
            ChainAuditor(
                contract_address=self.contract,
                set_selector=SET_SELECTOR,
                buy_selector=BUY_SELECTOR,
                initial_mark=initial_mark(self.contract),
            )
        )
        context.reference_chain.audit_cursor = self.audit
        self.owner_client = self.owner_setter(context)
        self.victim = Buyer(
            "victim",
            context.client_peers[0],
            context.simulator,
            self.contract,
            read_mode=self.victim_read_mode or self.spec.scenario.buyer_read_mode,
        )

    def schedule(self, context: SimulationContext) -> None:
        simulator, metrics, owner = context.simulator, context.metrics, self.owner_client
        simulator.schedule_at(0.5, lambda: owner.set_price(self.initial_price))
        if self.reprice_interval is not None:
            reprice_index = 1
            at = 0.5 + self.reprice_interval
            while at < self.end_of_submissions:
                price = self.initial_price + reprice_index * self.reprice_step
                simulator.schedule_at(at, lambda price=price: owner.set_price(price))
                reprice_index += 1
                at += self.reprice_interval
        for buy_index in range(self.num_victim_buys):
            simulator.schedule_at(
                5.0 + buy_index * self.buy_interval,
                submit_watched(metrics, VICTIM_BUY_LABEL, self.victim.buy),
            )

    @property
    def end_of_submissions(self) -> float:
        return 5.0 + self.num_victim_buys * self.buy_interval

    def natural_duration(self, spec) -> float:
        return self.end_of_submissions + 6 * spec.block_interval

    def finalize(self, context: SimulationContext) -> Dict[str, Any]:
        audit = self.audit.report
        return {
            "overpaid": len(audit.violations_of_kind("buy_wrongly_succeeded")),
            "audit_clean": audit.is_clean,
        }


@register_workload("frontrunning")
class FrontrunningWorkload(VictimMarketWorkload):
    """An attacker monitors the pending pool and races every victim buy."""

    name = "frontrunning"
    params = VictimMarketWorkload.params[:3] + (("attack_markup", _integer, 25),)
    # The historical attacker runs on the fixed-price market.
    initial_price, reprice_interval, reprice_step = 100, None, 5

    def account_labels(self) -> List[str]:
        return super().account_labels() + ["frontrunner"]

    def setup(self, context: SimulationContext) -> None:
        super().setup(context)
        self.attacker = FrontrunningAttacker(
            "frontrunner",
            context.client_peers[-1],
            context.simulator,
            self.contract,
            markup=self.attack_markup,
        )

    def schedule(self, context: SimulationContext) -> None:
        super().schedule(context)
        self.attacker.start()

    def finalize(self, context: SimulationContext) -> Dict[str, Any]:
        self.attacker.stop()
        extras = super().finalize(context)
        extras["attacks_launched"] = self.attacker.attacks_launched
        return extras
