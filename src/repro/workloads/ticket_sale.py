"""``ticket_sale`` — fans race a surge-priced sale of a fixed inventory."""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..api.registry import register_workload
from ..api.spec import _integer
from ..chain.genesis import GenesisConfig
from ..clients.base import ContractClient
from ..clients.market import READ_UNCOMMITTED
from ..contracts.ticket_sale import TicketSaleContract
from ..core.hms.fpv import BUY_FLAG, HEAD_FLAG, SUCCESS_FLAG, compute_mark, fpv_to_words
from ..crypto.addresses import Address, address_from_label
from ..crypto.keccak import keccak256
from ..encoding.hexutil import int_from_bytes32, to_bytes32
from .base import COUNT, SECONDS, SimulationContext, Workload, submit_watched

__all__ = ["TICKET_LABEL", "TicketSaleWorkload"]

TICKET_LABEL = "ticket"
_TICKET_SET_ABI = TicketSaleContract.function_by_name("set_price").abi
_TICKET_BUY_ABI = TicketSaleContract.function_by_name("buy_tickets").abi


class _TicketBuyer(ContractClient):
    """Buys one ticket at terms read from committed state or the HMS view."""

    def __init__(self, label, peer, simulator, venue: Address, use_hms: bool) -> None:
        super().__init__(label, peer, simulator)
        self.venue = venue
        self.use_hms = use_hms

    def observe(self) -> Tuple[bytes, bytes]:
        if self.use_hms:
            placeholder = [to_bytes32(0)] * 3
            mark = self.call(self.venue, "pending_mark", [placeholder]).values[0]
            price = self.call(self.venue, "pending_price", [placeholder]).values[0]
            return mark, price
        mark, price, _remaining = self.call(self.venue, "sale_state").values
        return mark, to_bytes32(price)

    def buy_one(self):
        mark, price = self.observe()
        calldata = _TICKET_BUY_ABI.encode_call(
            [BUY_FLAG, to_bytes32(mark), to_bytes32(price)], 1
        )
        return self.send_transaction(to=self.venue, data=calldata)


class _TicketOrganiser(ContractClient):
    """Surge-prices the tickets, chaining marks locally like the Sereth owner."""

    def __init__(self, label, peer, simulator, venue: Address, genesis_mark: bytes) -> None:
        super().__init__(label, peer, simulator)
        self.venue = venue
        self._mark = genesis_mark
        self._sent_any = False

    def set_price(self, price: int):
        flag = SUCCESS_FLAG if self._sent_any else HEAD_FLAG
        calldata = _TICKET_SET_ABI.encode_call(fpv_to_words(flag, self._mark, price))
        transaction = self.send_transaction(to=self.venue, data=calldata)
        self._mark = compute_mark(self._mark, to_bytes32(price))
        self._sent_any = True
        return transaction


@register_workload("ticket_sale")
class TicketSaleWorkload(Workload):
    """Fans race a surge-priced ticket sale; the organiser keeps repricing."""

    name = "ticket_sale"
    contract_label = "ticket-sale-venue"
    owner = "organiser"
    set_selector = _TICKET_SET_ABI.selector
    buy_selectors = (_TICKET_BUY_ABI.selector,)
    primary_label = TICKET_LABEL
    params = (
        ("num_buyers", COUNT, 6, 256),
        ("price_changes", COUNT, 12, 10_000),
        ("buys_per_buyer", COUNT, 4, 100),
        ("change_interval", SECONDS, 4.0),
        ("base_price", _integer, 40),
        ("surge_step", _integer, 5),
    )

    @property
    def genesis_mark(self) -> bytes:
        return keccak256(b"ticket-sale/genesis/", self.contract)

    @property
    def expected_watched(self) -> int:
        return self.num_buyers * self.buys_per_buyer

    def account_labels(self) -> List[str]:
        return [self.owner] + [f"fan-{index}" for index in range(self.num_buyers)]

    def configure_genesis(self, genesis: GenesisConfig) -> None:
        genesis.deploy_contract(
            self.contract,
            "TicketSale",
            storage={
                to_bytes32(0): to_bytes32(address_from_label(self.owner)),
                to_bytes32(1): self.genesis_mark,
                to_bytes32(3): to_bytes32(TicketSaleContract.INITIAL_INVENTORY),
            },
        )

    def setup(self, context: SimulationContext) -> None:
        use_hms = self.spec.scenario.buyer_read_mode == READ_UNCOMMITTED
        client_peers = context.client_peers
        self.organiser = _TicketOrganiser(
            self.owner, client_peers[0], context.simulator, self.contract, self.genesis_mark
        )
        self.buyers = [
            _TicketBuyer(
                f"fan-{index}",
                client_peers[index % len(client_peers)],
                context.simulator,
                self.contract,
                use_hms=use_hms,
            )
            for index in range(self.num_buyers)
        ]

    def _set_time(self, change: int) -> float:
        return 1.0 + change * self.change_interval

    def _buy_time(self, buy_index: int) -> float:
        window = self.price_changes * self.change_interval
        return 2.0 + buy_index * (window / self.expected_watched)

    def schedule(self, context: SimulationContext) -> None:
        simulator, metrics = context.simulator, context.metrics
        for change in range(self.price_changes):
            price = self.base_price + self.surge_step * change
            simulator.schedule_at(
                self._set_time(change), lambda price=price: self.organiser.set_price(price)
            )
        buy_index = 0
        for _round in range(self.buys_per_buyer):
            for buyer in self.buyers:
                simulator.schedule_at(
                    self._buy_time(buy_index), submit_watched(metrics, TICKET_LABEL, buyer.buy_one)
                )
                buy_index += 1

    @property
    def end_of_submissions(self) -> float:
        return max(
            self._set_time(self.price_changes - 1), self._buy_time(self.expected_watched - 1)
        )

    def finalize(self, context: SimulationContext) -> Dict[str, Any]:
        remaining = context.reference_chain.state.get_storage(self.contract, to_bytes32(3))
        return {"contract": self.contract, "tickets_remaining": int_from_bytes32(remaining)}
