"""``oracle`` — data latency of RAA view calls versus an oracle round trip."""

from __future__ import annotations

from typing import Any, Dict, List

from ..api.registry import register_workload
from ..chain.genesis import GenesisConfig
from ..clients.base import ContractClient
from ..contracts.oracle import ANSWER_EVENT, OracleContract
from ..crypto.addresses import address_from_label
from ..encoding.hexutil import bytes32_from_int, int_from_bytes32, to_bytes32
from .base import COUNT, SECONDS, SimulationContext, Workload

__all__ = ["OracleLatencyWorkload"]

_ORACLE_REQUEST_ABI = OracleContract.function_by_name("request").abi


@register_workload("oracle")
class OracleLatencyWorkload(Workload):
    """Measures data latency of RAA view calls versus an oracle round trip."""

    name = "oracle"
    owner = "oracle-owner"
    params = (
        ("num_queries", COUNT, 10, 10_000),
        ("query_interval", SECONDS, 10.0),
        ("price_change_interval", SECONDS, 5.0),
    )
    # 20,015 price steps at the num_queries ceiling and default intervals.
    served_counts = (("price_steps", 100_000),)

    @property
    def oracle_address(self):
        return address_from_label("oracle-contract")

    @property
    def post_stop_drain(self) -> float:
        return 2 * self.spec.block_interval

    def account_labels(self) -> List[str]:
        return [self.owner, "oracle-consumer", "oracle-operator"]

    def configure_genesis(self, genesis: GenesisConfig) -> None:
        super().configure_genesis(genesis)
        genesis.deploy_contract(
            self.oracle_address,
            "Oracle",
            storage={
                to_bytes32(0): to_bytes32(address_from_label("oracle-operator")),
                to_bytes32(1): to_bytes32(0),
            },
        )

    def natural_duration(self, spec) -> float:
        return self.num_queries * self.query_interval + 6 * spec.block_interval

    @property
    def price_steps(self) -> int:
        """Price changes booked over the run."""
        return int(self.natural_duration(self.spec) / self.price_change_interval)

    def setup(self, context: SimulationContext) -> None:
        simulator = context.simulator
        miner_peer = context.miner_peers[0]
        self.setter = self.owner_setter(context)
        self.raa_latencies: List[float] = []
        self.request_times: Dict[int, float] = {}

        # Imported lazily: repro.oracle's package init pulls in the facade,
        # so a module-level import here would be circular.
        from ..oracle.service import OracleOperator

        # The operator holds this source, and this workload holds the
        # operator: the source closes over the address, not ``self``, so the
        # workload is freed by reference counting alone.
        contract = self.contract

        def price_source(query: bytes) -> bytes:
            return miner_peer.chain.state.get_storage(contract, bytes32_from_int(2))

        self.operator = OracleOperator(
            "oracle-operator",
            miner_peer,
            simulator,
            self.oracle_address,
            data_source=price_source,
        )
        self.consumer = ContractClient("oracle-consumer", context.client_peers[0], simulator)

    def schedule(self, context: SimulationContext) -> None:
        simulator = context.simulator
        self.operator.start()

        def change_price(step: int):
            def fire() -> None:
                self.setter.set_price(100 + step)

            return fire

        for step in range(self.price_steps):
            simulator.schedule_at(
                0.5 + step * self.price_change_interval, change_price(step)
            )

        expected_request_ids = iter(range(self.num_queries))

        def query_via_both():
            def fire() -> None:
                # RAA path: a local view call answers immediately.
                started = simulator.now
                placeholder = [to_bytes32(0)] * 3
                self.consumer.call(self.contract, "get", [placeholder])
                self.raa_latencies.append(simulator.now - started)
                # Oracle path: request must commit, then the answer must commit.
                request_id = next(expected_request_ids)
                self.request_times[request_id] = started
                self.consumer.send_transaction(
                    to=self.oracle_address,
                    data=_ORACLE_REQUEST_ABI.encode_call(to_bytes32(b"sereth-price")),
                )

            return fire

        for query_index in range(self.num_queries):
            simulator.schedule_at(5.0 + query_index * self.query_interval, query_via_both())

    @property
    def end_of_submissions(self) -> float:
        return 5.0 + (self.num_queries - 1) * self.query_interval

    def finalize(self, context: SimulationContext) -> Dict[str, Any]:
        self.operator.stop()
        chain, oracle = context.client_peers[0].chain, self.oracle_address
        answer_commit_times: Dict[int, float] = {}
        for block in chain.blocks():
            for receipt in block.receipts:
                if not receipt.success:
                    continue
                for log in receipt.logs:
                    if log.address == oracle and log.topics and log.topics[0] == ANSWER_EVENT:
                        request_id = int_from_bytes32(log.topics[1])
                        answer_commit_times.setdefault(request_id, block.timestamp)
        oracle_latencies: List[float] = []
        unanswered = 0
        for request_id, started in self.request_times.items():
            if request_id in answer_commit_times:
                oracle_latencies.append(answer_commit_times[request_id] - started)
            else:
                unanswered += 1
        return {
            "raa_latencies": list(self.raa_latencies),
            "oracle_latencies": oracle_latencies,
            "oracle_unanswered": unanswered,
        }
