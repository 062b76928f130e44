"""Tests for the fluent builder: validation, immutability, and spec shape."""

import dataclasses

import pytest

from repro.api import BuildError, Simulation, SimulationSpec
from repro.experiments.scenario import SEMANTIC_MINING


class TestBuilderHappyPath:
    def test_full_fluent_chain_produces_a_spec(self):
        spec = (
            Simulation.builder()
            .scenario("semantic_mining")
            .workload("market", buys_per_set=4.0)
            .miners(3)
            .clients(8)
            .block_interval(13.0)
            .seed(42)
            .build()
        )
        assert isinstance(spec, SimulationSpec)
        assert spec.scenario.name == "semantic_mining"
        assert spec.workload == "market"
        assert spec.params["buys_per_set"] == 4.0
        assert spec.num_miners == 3
        assert spec.num_client_peers == 8
        assert spec.block_interval == 13.0
        assert spec.seed == 42

    def test_scenario_accepts_an_instance(self):
        spec = Simulation.builder().scenario(SEMANTIC_MINING).build()
        assert spec.scenario is SEMANTIC_MINING

    def test_scenario_variant_instances_are_accepted(self):
        partial = SEMANTIC_MINING.with_semantic_fraction(0.5)
        spec = Simulation.builder().scenario(partial).build()
        assert spec.scenario.semantic_miner_fraction == 0.5

    def test_spec_is_immutable(self):
        spec = Simulation.builder().scenario("geth_unmodified").build()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.seed = 99

    def test_with_seed_and_with_params_derive_copies(self):
        spec = Simulation.builder().scenario("geth_unmodified").workload("market").build()
        reseeded = spec.with_seed(7)
        assert reseeded.seed == 7 and spec.seed == 0
        widened = spec.with_params(num_buys=5)
        assert widened.params["num_buys"] == 5
        assert "num_buys" not in spec.params

    def test_client_kind_overrides(self):
        spec = (
            Simulation.builder()
            .scenario("sereth_client")
            .client_kind("client-1", "geth")
            .build()
        )
        assert spec.client_kind_for("client-1") == "geth"
        assert spec.client_kind_for("client-0") == "sereth"


class TestBuilderValidation:
    def test_unknown_scenario_name(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            Simulation.builder().scenario("warp_drive")

    def test_missing_scenario(self):
        with pytest.raises(BuildError, match="no scenario selected"):
            Simulation.builder().workload("market").build()

    def test_unknown_workload_name(self):
        with pytest.raises(BuildError, match="unknown workload"):
            Simulation.builder().scenario("geth_unmodified").workload("nonsense")

    def test_bad_workload_parameter_value(self):
        with pytest.raises(BuildError, match="market"):
            (
                Simulation.builder()
                .scenario("geth_unmodified")
                .workload("market", buys_per_set=-1.0)
                .build()
            )

    def test_unknown_workload_parameter_name(self):
        with pytest.raises(BuildError, match="market"):
            (
                Simulation.builder()
                .scenario("geth_unmodified")
                .workload("market", warp_factor=9)
                .build()
            )

    def test_bad_network_shape(self):
        with pytest.raises(BuildError):
            Simulation.builder().scenario("geth_unmodified").miners(0).build()
        with pytest.raises(BuildError):
            Simulation.builder().scenario("geth_unmodified").clients(-1).build()
        with pytest.raises(BuildError):
            Simulation.builder().scenario("geth_unmodified").block_interval(0.0).build()

    def test_bad_loss_rate(self):
        spec = Simulation.builder().scenario("geth_unmodified").build()
        with pytest.raises(ValueError, match=r"in \[0, 1\)"):
            dataclasses.replace(spec, transaction_loss_rate=1.5)

    def test_unknown_miner_policy(self):
        with pytest.raises(BuildError, match="miner policy"):
            Simulation.builder().scenario("geth_unmodified").miner_policy("chaotic")
