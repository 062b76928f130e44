"""Determinism and byte-identity guarantees for the topology subsystem.

Two contracts are frozen here.  First, the network model is deterministic at
N=100: the same seed must produce byte-identical adjacency, identical
propagation digests across fresh handles, and serial-vs-parallel sweep
parity.  Second, the explicit ``full_mesh`` topology is the *same machine*
as the default: running the committed golden grid with
``.topology("full_mesh")`` must — once the extra descriptive fields are
stripped — reproduce :data:`GOLDEN_SWEEP_SHA256` exactly, because full mesh
routes through the legacy direct-broadcast path.
"""

import hashlib
import json

import pytest

from repro.api import SimulationBuilder
from repro.api.builder import BuildError, Simulation
from repro.api.engine import build_simulation, run_simulation
from repro.api.sweep import Sweep

from .test_golden_determinism import GOLDEN_SWEEP_SHA256, golden_sweep


def spec_at_100(topology: str = "random_k", seed: int = 404, **params):
    return (
        Simulation.builder()
        .scenario("semantic_mining")
        .workload("victim_market", num_victim_buys=4, buy_interval=2.0)
        .miners(2)
        .clients(98)
        .block_interval(13.0)
        .topology(topology, **params)
        .bandwidth(1_250_000.0)
        .seed(seed)
        .build()
    )


def minimal_builder() -> SimulationBuilder:
    return SimulationBuilder().scenario("geth_unmodified").workload("market", num_buys=1)


class TestSpecCanonicalization:
    def test_bare_string_topology_freezes_with_empty_params(self):
        spec = minimal_builder().topology("random_k").build()
        assert spec.topology == ("random_k", ())

    def test_params_freeze_sorted(self):
        spec = minimal_builder().topology("random_k", k=6).build()
        assert spec.topology == ("random_k", (("k", 6),))

    def test_unknown_topology_raises_with_known_names(self):
        with pytest.raises(BuildError) as excinfo:
            SimulationBuilder().topology("torus")
        assert "torus" in str(excinfo.value)
        assert "full_mesh" in str(excinfo.value)

    def test_bad_params_fail_at_build_time(self):
        with pytest.raises(BuildError):
            SimulationBuilder().topology("random_k", k=0)
        with pytest.raises(BuildError):
            SimulationBuilder().bandwidth(0)
        with pytest.raises(BuildError):
            SimulationBuilder().churn(("explode", 1.0))

    def test_default_describe_has_no_network_model_keys(self):
        description = minimal_builder().build().describe()
        assert "topology" not in description
        assert "bandwidth" not in description
        assert "churn" not in description

    def test_describe_emits_network_model_when_set(self):
        spec = (
            minimal_builder()
            .topology("region_hub", regions=3)
            .bandwidth(500.0)
            .churn(("heal", 10.0))
            .build()
        )
        description = spec.describe()
        assert description["topology"] == {"name": "region_hub", "params": {"regions": 3}}
        assert description["bandwidth"] == {"bytes_per_second": 500.0}
        assert description["churn"] == [["heal", 10.0]]


class TestHundredPeerDeterminism:
    def test_same_seed_builds_byte_identical_adjacency(self):
        first = build_simulation(spec_at_100())
        second = build_simulation(spec_at_100())
        assert first.topology is not None
        assert first.topology.adjacency == second.topology.adjacency
        assert first.topology.checksum() == second.topology.checksum()

    def test_different_seeds_build_different_graphs(self):
        first = build_simulation(spec_at_100(seed=404))
        second = build_simulation(spec_at_100(seed=405))
        assert first.topology.adjacency != second.topology.adjacency

    def test_fresh_handles_reproduce_the_propagation_digest(self):
        spec = spec_at_100("region_hub", regions=4)
        first = build_simulation(spec)
        first.run()
        second = build_simulation(spec)
        second.run()
        assert first.network.propagation_samples() == second.network.propagation_samples()
        assert first.network.propagation_summary() == second.network.propagation_summary()

    def test_run_summaries_are_identical(self):
        spec = spec_at_100("kademlia")
        assert run_simulation(spec).summary() == run_simulation(spec).summary()

    def test_serial_and_parallel_sweeps_agree_at_100_peers(self):
        def sweep():
            return (
                Sweep(spec_at_100())
                .over(topology=[("random_k", {"k": 6}), ("region_hub", {})])
                .trials(1)
            )

        serial = sweep().run(workers=1).to_json()
        parallel = sweep().run(workers=2).to_json()
        assert serial == parallel


def stripped_checksum(result) -> str:
    """The sweep export's checksum with the topology-only fields removed.

    An explicit full-mesh run adds exactly two describe-level artefacts — the
    spec's ``topology`` entry and the ``network`` propagation digest in
    extras.  Everything else must be the golden bytes.
    """
    records = json.loads(result.to_json())
    for record in records:
        removed = record["summary"]["spec"].pop("topology")
        assert removed == {"name": "full_mesh", "params": {}}
        digest = record["summary"]["extras"].pop("network")
        assert digest["topology"] == "full_mesh"
    text = json.dumps(records, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestFullMeshGoldenParity:
    def test_explicit_full_mesh_reproduces_the_committed_checksum(self):
        base = (
            SimulationBuilder()
            .workload("market", num_buys=12)
            .scenario("geth_unmodified")
            .miners(1)
            .clients(1)
            .topology("full_mesh")
            .seed(20260730)
            .build()
        )
        sweep = (
            Sweep(base)
            .over(
                scenario=["geth_unmodified", "semantic_mining"],
                buys_per_set=[2.0, 10.0],
            )
            .trials(1)
        )
        assert stripped_checksum(sweep.run(workers=1)) == GOLDEN_SWEEP_SHA256

    def test_default_sweep_still_matches_for_reference(self):
        # The untouched golden grid keeps passing alongside the parity test,
        # so a failure above isolates the topology plumbing, not the engine.
        export = golden_sweep().run(workers=1).to_json()
        assert hashlib.sha256(export.encode("utf-8")).hexdigest() == GOLDEN_SWEEP_SHA256
