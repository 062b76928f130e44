"""Registry round-trips: scenario parity with the paper's table, workload plugins."""

import pytest

from repro.api import (
    Registry,
    RegistryError,
    SCENARIO_REGISTRY,
    WORKLOAD_REGISTRY,
    Workload,
    register_workload,
)
from repro.experiments.scenario import GETH_UNMODIFIED, SEMANTIC_MINING, SERETH_CLIENT_SCENARIO


class TestScenarioRegistry:
    def test_paper_scenarios_registered(self):
        for name in ("geth_unmodified", "sereth_client", "semantic_mining"):
            assert name in SCENARIO_REGISTRY

    def test_parity_with_legacy_lookup(self):
        """The registry resolves names to the paper's scenario constants."""
        for scenario in (GETH_UNMODIFIED, SERETH_CLIENT_SCENARIO, SEMANTIC_MINING):
            assert SCENARIO_REGISTRY.get(scenario.name) is scenario

    def test_unknown_scenario_raises_registry_error(self):
        with pytest.raises(RegistryError, match="unknown scenario"):
            SCENARIO_REGISTRY.get("warp_drive")


class TestWorkloadRegistry:
    def test_builtin_workloads_registered(self):
        for name in ("market", "ticket_sale", "auction", "oracle", "sequential", "frontrunning"):
            assert name in WORKLOAD_REGISTRY

    def test_entries_are_workload_subclasses(self):
        for name in WORKLOAD_REGISTRY:
            assert issubclass(WORKLOAD_REGISTRY.get(name), Workload)

    def test_decorator_registration_round_trip(self):
        @register_workload("test-only-noop")
        class NoopWorkload(Workload):
            name = "test-only-noop"

        try:
            assert WORKLOAD_REGISTRY.get("test-only-noop") is NoopWorkload
        finally:
            # Keep the process-wide registry clean for other tests.
            WORKLOAD_REGISTRY._entries.pop("test-only-noop")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            register_workload("market")(type("Fake", (Workload,), {}))


class TestGenericRegistry:
    def test_add_get_contains_iter(self):
        registry = Registry("thing")
        registry.add("a", 1)
        registry.add("b", 2)
        assert registry.get("a") == 1
        assert "b" in registry and "c" not in registry
        assert list(registry) == ["a", "b"]
        assert len(registry) == 2

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Registry("thing").add("", 1)

    def test_decorator_infers_name_attribute(self):
        registry = Registry("thing")

        @registry.register()
        class Named:
            name = "named"

        assert registry.get("named") is Named

    def test_decorator_without_name_fails(self):
        registry = Registry("thing")
        with pytest.raises(ValueError, match="infer"):
            registry.register()(object())
