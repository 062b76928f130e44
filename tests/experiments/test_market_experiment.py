"""Integration tests for the market workload (small configurations)."""

from dataclasses import replace

import pytest

from repro.api import SCENARIO_REGISTRY, Simulation, run_simulation
from repro.experiments.scenario import (
    GETH_UNMODIFIED,
    SEMANTIC_MINING,
    SERETH_CLIENT_SCENARIO,
)


def small_spec(scenario, seed=7, **params):
    """A fast market spec: 30 buys, 2 buyers, 2 client peers."""
    defaults = dict(num_buys=30, buys_per_set=2.0, num_buyers=2)
    defaults.update(params)
    return (
        Simulation.builder()
        .scenario(scenario)
        .workload("market", **defaults)
        .seed(seed)
        .build()
    )


@pytest.fixture(scope="module")
def results():
    """Run each scenario once at a small scale and share across tests."""
    return {
        scenario.name: run_simulation(small_spec(scenario))
        for scenario in (GETH_UNMODIFIED, SERETH_CLIENT_SCENARIO, SEMANTIC_MINING)
    }


class TestScenarioDefinitions:
    def test_lookup_by_name(self):
        assert SCENARIO_REGISTRY.get("geth_unmodified") is GETH_UNMODIFIED
        with pytest.raises(KeyError):
            SCENARIO_REGISTRY.get("warp_drive")

    def test_semantic_fraction_variant(self):
        partial = SEMANTIC_MINING.with_semantic_fraction(0.5)
        assert partial.semantic_miner_fraction == 0.5
        assert partial.semantic_mining
        none = SEMANTIC_MINING.with_semantic_fraction(0.0)
        assert not none.semantic_mining
        with pytest.raises(ValueError):
            SEMANTIC_MINING.with_semantic_fraction(1.5)


class TestExperimentRuns:
    def test_all_buys_and_sets_commit(self, results):
        for result in results.values():
            assert result.reports["buy"].committed == 30
            assert result.reports["buy"].uncommitted == 0
            assert result.reports["set"].committed == result.reports["set"].submitted

    def test_sets_always_succeed(self, results):
        """Paper: all sets succeed because they come from the owner in nonce order."""
        for result in results.values():
            assert result.reports["set"].efficiency == 1.0

    def test_scenario_ordering_matches_the_paper(self, results):
        """The headline shape: geth < sereth_client < semantic_mining."""
        geth = results["geth_unmodified"].efficiency
        sereth = results["sereth_client"].efficiency
        semantic = results["semantic_mining"].efficiency
        assert geth < sereth <= semantic
        assert semantic >= 0.8
        assert geth <= 0.5

    def test_blocks_were_produced_and_replayed_consistently(self, results):
        for result in results.values():
            assert result.blocks_produced > 0
            roots = {peer.chain.state.state_root() for peer in result.peers}
            assert len(roots) == 1

    def test_summary_round_trips_key_fields(self, results):
        summary = results["semantic_mining"].summary()
        assert summary["spec"]["scenario"] == "semantic_mining"
        assert summary["reports"]["buy"]["committed"] == 30
        assert 0.0 <= summary["efficiency"] <= 1.0

    def test_seed_reproducibility(self):
        first = run_simulation(small_spec(SERETH_CLIENT_SCENARIO, seed=42))
        second = run_simulation(small_spec(SERETH_CLIENT_SCENARIO, seed=42))
        assert first.efficiency == second.efficiency
        assert first.blocks_produced == second.blocks_produced

    def test_different_seeds_can_differ(self):
        outcomes = {
            run_simulation(small_spec(GETH_UNMODIFIED, seed=seed)).reports["buy"].successful
            for seed in (1, 2, 3)
        }
        assert len(outcomes) >= 1  # typically >1; at minimum the runs complete

    def test_duration_cap_limits_the_settle_phase(self):
        """The cap bounds how long the run waits for stragglers after the
        last submission (submissions themselves always complete)."""
        spec = replace(small_spec(GETH_UNMODIFIED), max_duration=40.0)
        result = run_simulation(spec)
        end_of_submissions = 30.0 + 30 * 1.0  # default start_time + num_buys x interval
        assert result.simulated_seconds <= end_of_submissions + spec.block_interval + 1e-6


class TestConfigurationKnobs:
    def test_higher_ratio_improves_baseline_efficiency(self):
        low = run_simulation(small_spec(GETH_UNMODIFIED, buys_per_set=1.0, num_buys=40))
        high = run_simulation(small_spec(GETH_UNMODIFIED, buys_per_set=20.0, num_buys=40))
        assert high.efficiency >= low.efficiency

    def test_transaction_loss_leaves_buys_uncommitted(self):
        spec = replace(small_spec(GETH_UNMODIFIED), transaction_loss_rate=0.6, settle_blocks=2)
        result = run_simulation(spec)
        assert result.reports["buy"].uncommitted > 0

    def test_fixed_block_interval_mode(self):
        result = run_simulation(replace(small_spec(SEMANTIC_MINING), fixed_block_interval=True))
        assert result.blocks_produced > 0
        assert result.efficiency >= 0.8

    def test_partial_semantic_mining_between_baseline_and_full(self):
        def four_miners(scenario):
            return run_simulation(replace(small_spec(scenario), num_miners=4))

        baseline = four_miners(SERETH_CLIENT_SCENARIO)
        partial = four_miners(SEMANTIC_MINING.with_semantic_fraction(0.5))
        full = four_miners(SEMANTIC_MINING)
        assert baseline.efficiency <= partial.efficiency + 0.15
        assert partial.efficiency <= full.efficiency + 0.15
