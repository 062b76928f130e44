"""Tests for the steady_state workload (the memory-model traffic shape)."""

from dataclasses import replace

import pytest

from repro.api import Simulation, build_simulation, run_simulation
from repro.api.registry import WORKLOAD_REGISTRY
from repro.workloads.steady_state import STEADY_LABEL, SteadyStateWorkload


def steady_spec(seed=7, **params):
    defaults = dict(num_blocks=32, blocks_per_set=4)
    defaults.update(params)
    return replace(
        Simulation.builder()
        .scenario("geth_unmodified")
        .workload("steady_state", **defaults)
        .miners(1)
        .clients(1)
        .seed(seed)
        .build(),
        settle_blocks=3,
    )


class TestRegistration:
    def test_registered_under_its_name(self):
        assert WORKLOAD_REGISTRY.get("steady_state") is SteadyStateWorkload

    def test_parameters_validated(self):
        spec = steady_spec()
        with pytest.raises(ValueError, match="num_blocks"):
            SteadyStateWorkload(spec, num_blocks=0)
        with pytest.raises(ValueError, match="blocks_per_set"):
            SteadyStateWorkload(spec, num_blocks=10, blocks_per_set=0)


class TestRun:
    @pytest.fixture(scope="class")
    def result(self):
        return run_simulation(steady_spec())

    def test_horizon_is_measured_in_blocks(self, result):
        # The run keeps producing (mostly empty) blocks until num_blocks
        # intervals elapse, independent of how few sets were submitted.
        assert result.blocks_produced >= 32

    def test_one_set_per_blocks_per_set(self, result):
        report = result.report(STEADY_LABEL)
        assert report.submitted == 32 // 4
        assert report.committed == report.submitted

    def test_every_set_succeeds(self, result):
        # All sets come from the single owner account in nonce order, so
        # the steady drip must be loss-free.
        assert result.efficiency == 1.0
        assert result.report(STEADY_LABEL).success_rate == 1.0

    def test_primary_label_and_extras(self, result):
        assert result.primary_label == STEADY_LABEL
        assert result.extras["num_blocks"] == 32

    def test_reproducible(self):
        first = run_simulation(steady_spec(seed=3))
        second = run_simulation(steady_spec(seed=3))
        assert first.summary() == second.summary()

    def test_client_audit_lists_do_not_accumulate(self):
        """The workload clears the PriceSetter audit lists as it goes —
        over a 100k-block horizon they would otherwise be a leak."""
        handle = build_simulation(steady_spec())
        handle.run()
        setter = handle.workload.setter
        assert setter.set_transactions == []
        assert setter.sent_transactions == []
