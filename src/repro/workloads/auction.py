"""``auction`` — an English auction over a mark-chained bid history."""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..api.registry import register_workload
from ..chain.genesis import GenesisConfig
from ..clients.base import ContractClient
from ..clients.market import READ_UNCOMMITTED
from ..contracts.auction import AuctionContract
from ..core.hms.fpv import HEAD_FLAG, SUCCESS_FLAG, fpv_to_words
from ..crypto.addresses import Address, address_from_label
from ..crypto.keccak import keccak256
from ..encoding.hexutil import int_from_bytes32, to_bytes32
from .base import COUNT, SECONDS, SimulationContext, Workload, submit_watched

__all__ = ["BID_LABEL", "AuctionWorkload"]

BID_LABEL = "bid"
_BID_ABI = AuctionContract.function_by_name("bid").abi


class _Bidder(ContractClient):
    """Outbids the high bid it can see (committed state or the HMS view)."""

    def __init__(self, label, peer, simulator, auction: Address, use_hms: bool, increment: int) -> None:
        super().__init__(label, peer, simulator)
        self.auction = auction
        self.use_hms = use_hms
        self.increment = increment

    def observe(self) -> Tuple[bytes, int]:
        """The (mark, high bid) this bidder believes is current."""
        if self.use_hms:
            placeholder = [to_bytes32(0)] * 3
            mark = self.call(self.auction, "pending_mark", [placeholder]).values[0]
            high = self.call(self.auction, "pending_high_bid", [placeholder]).values[0]
            return mark, int_from_bytes32(high)
        mark, high, _bidder = self.call(self.auction, "auction_state").values
        return mark, high

    def bid_once(self):
        observed_mark, observed_high = self.observe()
        committed_mark = self.call(self.auction, "auction_state").values[0]
        # Head candidate if our view equals committed state, successor if we
        # are chaining onto a pending bid — mirroring the Sereth price setter.
        flag = HEAD_FLAG if observed_mark == committed_mark else SUCCESS_FLAG
        amount = observed_high + self.increment
        calldata = _BID_ABI.encode_call(fpv_to_words(flag, observed_mark, amount))
        return self.send_transaction(to=self.auction, data=calldata, value=amount)


@register_workload("auction")
class AuctionWorkload(Workload):
    """Bidders race an open-outcry auction; every accepted bid moves the mark."""

    name = "auction"
    contract_label = "auction-house"
    owner = "seller"
    set_selector = _BID_ABI.selector
    buy_selectors = ()
    primary_label = BID_LABEL
    params = (
        ("num_bidders", COUNT, 4, 256),
        ("bids_per_bidder", COUNT, 3, 100),
        ("bid_interval", SECONDS, 2.0),
        ("increment", COUNT, 10),
    )

    @property
    def expected_watched(self) -> int:
        return self.num_bidders * self.bids_per_bidder

    def account_labels(self) -> List[str]:
        return [self.owner] + [f"bidder-{index}" for index in range(self.num_bidders)]

    def configure_genesis(self, genesis: GenesisConfig) -> None:
        seller = address_from_label(self.owner)
        genesis.deploy_contract(
            self.contract,
            "Auction",
            storage={
                to_bytes32(0): to_bytes32(seller),
                to_bytes32(1): keccak256(b"auction/genesis/", self.contract),
                to_bytes32(2): to_bytes32(0),
                to_bytes32(3): to_bytes32(seller),
                to_bytes32(4): to_bytes32(0),
                to_bytes32(5): to_bytes32(0),
            },
        )

    def setup(self, context: SimulationContext) -> None:
        use_hms = self.spec.scenario.buyer_read_mode == READ_UNCOMMITTED
        client_peers = context.client_peers
        self.bidders = [
            _Bidder(
                f"bidder-{index}",
                client_peers[index % len(client_peers)],
                context.simulator,
                self.contract,
                use_hms=use_hms,
                increment=self.increment,
            )
            for index in range(self.num_bidders)
        ]

    def schedule(self, context: SimulationContext) -> None:
        simulator, metrics = context.simulator, context.metrics
        for bid_index in range(self.expected_watched):
            bidder = self.bidders[bid_index % self.num_bidders]
            simulator.schedule_at(
                1.0 + bid_index * self.bid_interval,
                submit_watched(metrics, BID_LABEL, bidder.bid_once),
            )

    @property
    def end_of_submissions(self) -> float:
        return 1.0 + (self.expected_watched - 1) * self.bid_interval

    def finalize(self, context: SimulationContext) -> Dict[str, Any]:
        state = context.reference_chain.state
        return {
            "contract": self.contract,
            "high_bid": int_from_bytes32(state.get_storage(self.contract, to_bytes32(2))),
            "accepted_bids": int_from_bytes32(state.get_storage(self.contract, to_bytes32(4))),
        }
