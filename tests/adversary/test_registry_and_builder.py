"""Adversary registry, builder/spec threading, and back-compat re-exports."""

import pytest

from repro.adversary import ADVERSARY_REGISTRY, Adversary, register_adversary
from repro.api import BuildError, Simulation
from repro.api.spec import freeze_adversaries

SHIPPED = ("censoring_miner", "displacement", "insertion", "stale_oracle", "suppression")


class TestRegistry:
    def test_all_shipped_strategies_registered(self):
        for name in SHIPPED:
            assert name in ADVERSARY_REGISTRY
            assert issubclass(ADVERSARY_REGISTRY.get(name), Adversary)

    def test_names_are_sorted(self):
        assert ADVERSARY_REGISTRY.names() == sorted(ADVERSARY_REGISTRY.names())

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):

            @register_adversary("displacement")
            class Dupe(Adversary):
                name = "displacement"

    def test_unknown_lookup_names_the_registered_set(self):
        with pytest.raises(KeyError, match="registered"):
            ADVERSARY_REGISTRY.get("nonexistent")


class TestBuilderAndSpec:
    def base(self):
        return (
            Simulation.builder()
            .scenario("semantic_mining")
            .workload("victim_market", num_victim_buys=4)
        )

    def test_adversary_lands_in_the_spec(self):
        spec = self.base().adversary("displacement", markup=30).build()
        assert spec.adversaries == (("displacement", (("markup", 30),)),)

    def test_adversaries_stack(self):
        spec = self.base().adversary("displacement").adversary("suppression").build()
        assert [name for name, _params in spec.adversaries] == [
            "displacement",
            "suppression",
        ]

    def test_unknown_adversary_is_a_build_error(self):
        with pytest.raises(BuildError, match="unknown adversary"):
            self.base().adversary("nope")

    def test_bad_adversary_params_are_a_build_error(self):
        with pytest.raises(BuildError, match="invalid parameters for adversary"):
            self.base().adversary("displacement", markup=-1).build()

    def test_unknown_adversary_kwarg_is_a_build_error(self):
        with pytest.raises(BuildError, match="invalid parameters for adversary"):
            self.base().adversary("displacement", bogus=1).build()

    def test_describe_includes_adversaries(self):
        spec = self.base().adversary("displacement", markup=30).build()
        assert spec.describe()["adversaries"] == [
            {"name": "displacement", "params": {"markup": 30}}
        ]

    def test_spec_rejects_malformed_adversary_entries(self):
        spec = self.base().build()
        from dataclasses import replace

        with pytest.raises(ValueError, match="adversaries entries"):
            replace(spec, adversaries=((42, ()),))

    def test_freeze_adversaries_accepts_names_and_pairs(self):
        frozen = freeze_adversaries(["displacement", ("suppression", {"burst": 2})])
        assert frozen == (("displacement", ()), ("suppression", (("burst", 2),)))
