"""The fault subsystem's contract: registry, determinism, and reconvergence.

Everything here runs at two levels.  Unit tests pin the injector's decision
seam (per-fault RNG streams, miner protection, eager validation); run-level
tests drive full simulations through :func:`run_simulation` and assert the
end-to-end promises — identical fault traces for identical specs, crashed
peers reconverging via range sync, and the spec surface staying silent when
no faults are configured.
"""

from __future__ import annotations

import random

import pytest

from repro.api.builder import BuildError, Simulation
from repro.api.engine import run_simulation
from repro.api.seeding import SeedPlan
from repro.faults import FAULT_REGISTRY, FaultInjector, build_fault

pytestmark = pytest.mark.filterwarnings("error")


def faulted_spec(**fault_params):
    """A small market run with one configurable fault."""
    builder = (
        Simulation.builder()
        .scenario("semantic_mining")
        .workload("market", num_buys=4)
        .miners(1)
        .clients(2)
        .block_interval(2.0)
        .seed(71)
    )
    for name, params in fault_params.items():
        builder = builder.fault(name, **params)
    return builder.build()


class TestRegistry:
    def test_shipped_faults_registered(self):
        for name in ("drop", "duplicate", "delay", "corrupt", "crash"):
            assert name in FAULT_REGISTRY

    def test_builder_rejects_unknown_fault(self):
        with pytest.raises(BuildError, match="unknown fault"):
            Simulation.builder().fault("lightning")

    def test_builder_rejects_bad_params_eagerly(self):
        with pytest.raises(BuildError, match="invalid parameters"):
            Simulation.builder().fault("drop", rate=2.0)
        with pytest.raises(BuildError, match="invalid parameters"):
            Simulation.builder().fault("drop", rate=0.1, target="gossip")

    def test_build_fault_constructs(self):
        fault = build_fault("drop", {"rate": 0.5, "target": "block"})
        assert fault.rate == 0.5
        assert fault.category == "message"


NAN, INF = float("nan"), float("inf")


class TestFiniteParameters:
    """NaN and infinities are refused when the fault is built: a NaN window
    bound turned the injector's window union NaN and silently switched off
    every message fault, and a non-finite delay reached the event heap."""

    @pytest.mark.parametrize(
        "name, params",
        [
            ("drop", {"rate": 0.5, "start": NAN}),
            ("drop", {"rate": 0.5, "start": INF}),
            ("drop", {"rate": 0.5, "until": NAN}),
            ("drop", {"rate": 0.5, "until": INF}),
            ("corrupt", {"rate": 0.5, "until": NAN}),
            ("delay", {"rate": 0.5, "extra": NAN}),
            ("delay", {"rate": 0.5, "extra": INF}),
            ("delay", {"rate": 0.5, "jitter": NAN}),
            ("delay", {"rate": 0.5, "jitter": INF}),
            ("duplicate", {"rate": 0.5, "spread": NAN}),
            ("duplicate", {"rate": 0.5, "spread": INF}),
        ],
    )
    def test_build_fault_refuses_non_finite(self, name, params):
        with pytest.raises(ValueError, match="finite"):
            build_fault(name, params)

    def test_builder_refuses_a_nan_window_ahead_of_a_live_fault(self):
        with pytest.raises(BuildError, match="finite"):
            (
                Simulation.builder()
                .scenario("semantic_mining")
                .workload("market", num_buys=4)
                .fault("drop", rate=0.5, until=NAN)
                .fault("delay", rate=0.5, target="block", until=34.0)
                .build()
            )


class TestSpecSurface:
    def test_faults_absent_from_default_describe(self):
        spec = faulted_spec()
        assert "faults" not in spec.describe()

    def test_faults_present_when_configured(self):
        spec = faulted_spec(drop={"rate": 0.2, "target": "block"})
        described = spec.describe()
        assert described["faults"] == [
            {"name": "drop", "params": {"rate": 0.2, "target": "block"}}
        ]


class TestInjectorSeam:
    def build_injector(self, *entries):
        return FaultInjector.from_spec(entries, SeedPlan(9))

    def test_per_fault_streams_are_deterministic(self):
        first = self.build_injector(("drop", {"rate": 0.5, "target": "block"}))
        second = self.build_injector(("drop", {"rate": 0.5, "target": "block"}))
        decisions_a = [
            first.on_message("block", "a", "b", float(i)) is not None for i in range(64)
        ]
        decisions_b = [
            second.on_message("block", "a", "b", float(i)) is not None for i in range(64)
        ]
        assert decisions_a == decisions_b
        assert any(decisions_a) and not all(decisions_a)

    def test_protected_peers_never_see_block_faults(self):
        injector = self.build_injector(("drop", {"rate": 1.0, "target": "both"}))
        injector.protect_block_peers({"miner-0"})
        assert injector.on_message("block", "client-0", "miner-0", 1.0) is None
        effect = injector.on_message("block", "client-0", "client-1", 1.0)
        assert effect is not None and effect.drop
        # Protection is block-only: a miner's pool cannot fork the chain.
        effect = injector.on_message("tx", "client-0", "miner-0", 1.0)
        assert effect is not None and effect.drop

    def test_effects_merge_across_faults(self):
        injector = self.build_injector(
            ("drop", {"rate": 1.0, "target": "block"}),
            ("delay", {"rate": 1.0, "target": "block", "extra": 0.5, "jitter": 0.0}),
        )
        effect = injector.on_message("block", "a", "b", 1.0)
        assert effect.drop and effect.extra_delay == 0.5
        assert injector.injections == 2

    def test_crash_rejects_miner_targets(self):
        spec = faulted_spec(crash={"peer": "miner-0", "at": 2.0, "downtime": 2.0})
        with pytest.raises(ValueError, match="cannot crash miner"):
            run_simulation(spec)

    def test_crash_rejects_unknown_peer(self):
        spec = faulted_spec(crash={"peer": "client-9", "at": 2.0, "downtime": 2.0})
        with pytest.raises(ValueError, match="unknown peer"):
            run_simulation(spec)


class TestRunLevelDeterminism:
    def test_identical_specs_produce_identical_fault_traces(self):
        spec = faulted_spec(
            drop={"rate": 0.3, "target": "block", "until": 8.0},
            duplicate={"rate": 0.3, "target": "tx", "spread": 0.5},
            crash={"peer": "client-1", "at": 3.0, "downtime": 3.0},
        )
        results = [run_simulation(spec) for _ in range(2)]
        summaries = [result.extras["faults"] for result in results]
        assert summaries[0] == summaries[1]
        assert summaries[0]["injections"] > 0

    def test_fault_rng_does_not_perturb_clean_draws(self):
        # The same seed with and without faults commits the same market
        # outcome whenever no injected fault actually interferes: fault
        # decisions draw from their own streams, never the network's.
        clean = run_simulation(faulted_spec())
        nulled = run_simulation(
            faulted_spec(drop={"rate": 0.5, "target": "block", "start": 1e9})
        )
        assert "faults" not in clean.extras
        assert nulled.extras["faults"]["injections"] == 0
        assert clean.reports.keys() == nulled.reports.keys()
        for label, report in clean.reports.items():
            assert report == nulled.reports[label]


class TestReconvergence:
    def test_crashed_peer_rejoins_and_reconverges(self):
        spec = faulted_spec(crash={"peer": "client-1", "at": 3.0, "downtime": 3.0})
        result = run_simulation(spec)
        faults = result.extras["faults"]
        assert faults["peer_restarts"] == 1
        assert faults["injected_crash"] == 1
        assert faults["converged"] is True
        assert faults["min_height"] == faults["max_height"] > 0

    def test_lossy_gossip_heals_to_a_single_head(self):
        spec = faulted_spec(
            drop={"rate": 0.5, "target": "block", "until": 10.0},
            corrupt={"rate": 0.3, "target": "block", "until": 10.0},
        )
        result = run_simulation(spec)
        faults = result.extras["faults"]
        assert faults["injections"] > 0
        assert faults["converged"] is True
        assert faults["unique_heads"] == 1
