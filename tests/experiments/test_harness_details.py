"""Unit tests for smaller harness pieces: plans, reporting, production hooks."""

from dataclasses import replace

import pytest

from repro.chain import GenesisConfig
from repro.consensus.interval import FixedInterval
from repro.consensus.policies import FifoPolicy
from repro.api import (
    SCENARIO_REGISTRY,
    WORKLOAD_REGISTRY,
    ExperimentOptions,
    Simulation,
    plan_experiment,
    run_simulation,
)
from repro.api import sereth_exchange_address
from repro.experiments.reporting import emit_block
from repro.experiments.scenario import (
    GETH_UNMODIFIED,
    SEMANTIC_MINING,
    SERETH_CLIENT_SCENARIO,
)
from repro.net.latency import ConstantLatency
from repro.net.mining import BlockProductionProcess
from repro.net.network import Network
from repro.net.peer import Peer
from repro.net.sim import Simulator

PAPER_SCENARIOS = (GETH_UNMODIFIED, SERETH_CLIENT_SCENARIO, SEMANTIC_MINING)


class TestReporting:
    def test_emit_block_prints_title_and_body(self, capsys):
        emit_block("A Title", "line one\nline two")
        output = capsys.readouterr().out
        assert "A Title" in output
        assert "line one" in output
        assert "=" * 78 in output


class TestMarketSpec:
    def test_duration_cap_defaults_scale_with_workload(self):
        def simulated_seconds(num_buys):
            spec = (
                Simulation.builder()
                .scenario("semantic_mining")
                .workload("market", num_buys=num_buys, num_buyers=2)
                .build()
            )
            return run_simulation(spec).simulated_seconds

        assert simulated_seconds(60) > simulated_seconds(10)

    def test_explicit_max_duration_wins(self):
        spec = replace(
            Simulation.builder().scenario("geth_unmodified").workload("market").build(),
            max_duration=123.0,
        )
        assert WORKLOAD_REGISTRY.get("market")(spec).duration_cap(spec) == 123.0

    def test_contract_address_is_stable(self):
        assert sereth_exchange_address() == sereth_exchange_address()
        assert len(sereth_exchange_address()) == 20


class TestFigure2Plan:
    def test_experiment_config_varies_seed_by_trial_and_ratio(self):
        _, _, sweep = plan_experiment("figure2", ExperimentOptions())
        seeds = {
            (tags["scenario"], tags["buys_per_set"], tags["trial"]): spec.seed
            for spec, tags in sweep.jobs()
        }
        first = seeds[("geth_unmodified", 1.0, 0)]
        assert first != seeds[("geth_unmodified", 1.0, 1)]
        assert first != seeds[("geth_unmodified", 10.0, 0)]

    def test_experiment_config_carries_scenario_and_ratio(self):
        options = ExperimentOptions(overrides={"num_buys": 50})
        _, _, sweep = plan_experiment("figure2", options)
        for spec, tags in sweep.jobs():
            params = dict(spec.workload_params)
            assert spec.scenario.name == tags["scenario"]
            assert params["buys_per_set"] == tags["buys_per_set"]
            assert params["num_buys"] == 50


class TestScenarioRegistry:
    def test_three_paper_scenarios_registered(self):
        assert {scenario.name for scenario in PAPER_SCENARIOS} == {
            "geth_unmodified",
            "sereth_client",
            "semantic_mining",
        }
        for scenario in PAPER_SCENARIOS:
            assert SCENARIO_REGISTRY.get(scenario.name) is scenario

    def test_scenarios_are_immutable_dataclasses(self):
        with pytest.raises(Exception):
            GETH_UNMODIFIED.name = "other"  # type: ignore[misc]


class TestBlockProductionHooks:
    def test_on_block_callback_receives_blocks_and_winner(self):
        simulator = Simulator()
        network = Network(simulator, latency=ConstantLatency(0.01), seed=0)
        genesis = GenesisConfig.for_labels(["alice"])
        peer = network.add_peer(Peer("miner-0", genesis))
        production = BlockProductionProcess(
            simulator, network, interval_model=FixedInterval(5.0), seed=0
        )
        handle = production.register_miner(peer, policy=FifoPolicy())
        observed = []
        production.on_block = lambda block, winner: observed.append((block.number, winner.peer.peer_id))
        production.start()
        simulator.run_until(16.0)
        production.stop()
        assert observed == [(1, "miner-0"), (2, "miner-0"), (3, "miner-0")]
        assert handle.policy_name == "fifo"
        assert production.blocks_produced == 3

    def test_stop_prevents_further_blocks(self):
        simulator = Simulator()
        network = Network(simulator, latency=ConstantLatency(0.01), seed=0)
        genesis = GenesisConfig.for_labels(["alice"])
        peer = network.add_peer(Peer("miner-0", genesis))
        production = BlockProductionProcess(
            simulator, network, interval_model=FixedInterval(5.0), seed=0
        )
        production.register_miner(peer, policy=FifoPolicy())
        production.start()
        simulator.run_until(6.0)
        production.stop()
        simulator.run_until(30.0)
        assert production.blocks_produced == 1

    def test_register_miner_rejects_nonpositive_hash_power(self):
        simulator = Simulator()
        network = Network(simulator, latency=ConstantLatency(0.01), seed=0)
        peer = network.add_peer(Peer("miner-0", GenesisConfig.for_labels(["alice"])))
        production = BlockProductionProcess(simulator, network)
        with pytest.raises(ValueError):
            production.register_miner(peer, hash_power=0.0)
