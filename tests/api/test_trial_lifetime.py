"""A finished trial is freed by reference counting alone.

The network owns its peers, a peer's engine owns its HMS provider, an HMS
graph links nodes both ways, and an observed trial's tracer probes the
chain; each back link is weak (or skips the object that owns the tracer),
so no run leaves a reference cycle behind.  ``SimulationHandle.run``
pauses the cyclic collector on the strength of that, so a cycle would live
until some later collection ran (counting as live in ``live_state_stats``,
riding in the older generations, and adding to peak RSS).  These checks
therefore run with the collector off and ask one full collection what each
run left behind: every registered experiment's smoke jobs, the gossip,
faulty-gossip and retained-horizon shapes, and a served ``session.run``.
A seeded self-reference shows the check names what it finds.
"""

from __future__ import annotations

import gc
from typing import Any, Dict, List

import pytest

from repro.api import Simulation, build_simulation, run_simulation
from repro.api.experiment import EXPERIMENT_REGISTRY, ExperimentOptions, plan_experiment
from repro.api.registry import WORKLOAD_REGISTRY, register_workload
from repro.api.sweep import _run_job
from repro.chain.state import live_state_stats
from repro.service.server import ServiceConfig, SimulatorService
from repro.workloads.market import MarketSimWorkload

SCENARIOS = ("geth_unmodified", "sereth_client", "semantic_mining")
HORIZON_SMOKE_BLOCKS = 400
"""The horizon experiment's smoke legs are 50,000 blocks each, run in child
processes; here they run in this process at this length, still past the
64-block retention window, to keep the check quick."""


def figure2_job(scenario: str, observed: bool):
    _experiment, _options, sweep = plan_experiment("figure2", ExperimentOptions(workers=1, trials=1, seed=42))
    if observed:
        sweep = sweep.observed()
    return next(job for job in sweep.jobs() if job[1]["scenario"] == scenario)


def smoke_jobs(name: str, observed: bool):
    overrides = {"num_blocks": HORIZON_SMOKE_BLOCKS} if name == "horizon" else {}
    _experiment, _options, sweep = plan_experiment(name, ExperimentOptions(smoke=True, overrides=overrides))
    return (sweep.observed() if observed else sweep).jobs()


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)  # keep whatever a collection finds, to name it
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
        gc.collect()


def cyclic_garbage() -> List[str]:
    """The type names of what one full collection finds unreachable (empty
    when it finds nothing); what it found is then freed, so the next call
    reports only what is new."""
    gc.collect()
    names = sorted({type(item).__name__ for item in gc.garbage})
    gc.set_debug(0)
    gc.garbage.clear()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    return names


@pytest.mark.parametrize("observed", [False, True], ids=["untraced", "observed"])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_sweep_jobs_leave_no_cyclic_garbage_and_no_growing_states(scenario, observed, collector_off):
    job = figure2_job(scenario, observed)
    live = []
    for _ in range(3):
        _run_job(job)
        assert gc.collect() == 0, sorted({type(item).__name__ for item in gc.garbage})
        assert gc.garbage == []
        live.append(live_state_stats()["live_states"])
    # What stays live after a job is the process's templates only: the same
    # job leaves the same count, run after run.
    assert live[0] == live[1] == live[2], live


@pytest.mark.parametrize("observed", [False, True], ids=["untraced", "observed"])
@pytest.mark.parametrize("name", EXPERIMENT_REGISTRY.names())
def test_every_experiments_smoke_jobs_leave_no_cyclic_garbage(name, observed, collector_off):
    jobs = smoke_jobs(name, observed)
    assert jobs
    for spec, tags in jobs:
        _run_job((spec, tags))
        assert cyclic_garbage() == [], (name, tags)


def gossip_builder(faulty: bool):
    """``gossip_1k``'s shape at 40 client peers: a random-k flood with a
    bandwidth model and a displacement attacker on the victim market; with
    ``faulty``, ``gossip_1k_faulty``'s message faults and crash."""
    buys, interval = 4, 2.0
    builder = (
        Simulation.builder()
        .scenario("semantic_mining")
        .workload("victim_market", num_victim_buys=buys, buy_interval=interval)
        .miners(2)
        .clients(40)
        .block_interval(13.0)
        .gossip(0.07, 0.05)
        .gas(max_transactions_per_block=12)
        .topology("random_k")
        .bandwidth(1_250_000.0)
        .adversary("displacement")
        .seed(3)
    )
    if faulty:
        until = 5.0 + buys * interval + 13.0
        builder = (
            builder.fault("drop", rate=0.08, target="block", until=until)
            .fault("corrupt", rate=0.08, target="block", until=until)
            .fault("duplicate", rate=0.08, target="tx", spread=0.5, until=until)
            .fault("delay", rate=0.16, target="block", extra=0.3, jitter=0.4, until=until)
            .fault("crash", peer="client-1", at=8.0, downtime=8.0)
        )
    return builder


def horizon_builder():
    """``horizon_15k``'s shape: fixed-interval steady state at retention 64
    with streaming metrics."""
    return (
        Simulation.builder()
        .scenario("geth_unmodified")
        .workload("steady_state", num_blocks=HORIZON_SMOKE_BLOCKS, blocks_per_set=8)
        .miners(1)
        .clients(1)
        .block_interval(2.0, fixed=True)
        .retention(64)
        .metrics_window(512.0)
        .seed(3)
    )


def run_shape(builder, observed: bool) -> Dict[str, Any]:
    if observed:
        builder = builder.observe()
    return run_simulation(builder.build()).summary()


@pytest.mark.parametrize("observed", [False, True], ids=["untraced", "observed"])
def test_gossip_shape_leaves_no_cyclic_garbage(observed, collector_off):
    summary = run_shape(gossip_builder(faulty=False), observed)
    assert summary["extras"]["network"]
    assert cyclic_garbage() == []


@pytest.mark.parametrize("observed", [False, True], ids=["untraced", "observed"])
def test_faulty_gossip_shape_leaves_no_cyclic_garbage(observed, collector_off):
    builder = gossip_builder(faulty=True)
    handle = build_simulation((builder.observe() if observed else builder).build())
    faults = handle.run().extras["faults"]
    stats = handle.network.stats
    # Every fault path this shape stands for ran: each message fault
    # injected, the crashed peer restarted, orphans range-synced, and after
    # the end-of-run heal every peer holds one head.
    assert all(faults[f"injected_{kind}"] > 0 for kind in ("drop", "corrupt", "duplicate", "delay")), faults
    assert faults["peer_restarts"] == 1 and faults["converged"], faults
    assert stats.blocks_orphaned > 0 and stats.sync_requests > 0, stats
    del handle
    assert cyclic_garbage() == []


@pytest.mark.parametrize("observed", [False, True], ids=["untraced", "observed"])
def test_retained_horizon_shape_leaves_no_cyclic_garbage(observed, collector_off):
    summary = run_shape(horizon_builder(), observed)
    assert summary["blocks_produced"] >= HORIZON_SMOKE_BLOCKS
    assert cyclic_garbage() == []


def test_served_session_run_leaves_no_cyclic_garbage(collector_off):
    service = SimulatorService(ServiceConfig(idle_timeout=None))
    try:
        request = {"workload": "victim_market", "params": {"num_victim_buys": 6}, "observe": True}
        session = service.dispatch("session.create", request)["session"]
        service.dispatch("session.advance", {"session": session, "blocks": 2})
        summary = service.dispatch("session.run", {"session": session})
        assert summary["extras"]["audit_clean"]
        service.dispatch("session.close", {"session": session})
    finally:
        service.close()
    del service
    assert cyclic_garbage() == []


class SelfReferencingMarket(MarketSimWorkload):
    """A workload that keeps a reference to itself: the seeded cycle."""

    name = "test-only-self-referencing-market"

    def setup(self, context) -> None:
        super().setup(context)
        self.itself = self


def test_the_check_names_a_seeded_self_reference(collector_off):
    register_workload(SelfReferencingMarket.name)(SelfReferencingMarket)
    try:
        spec = (
            Simulation.builder()
            .scenario("semantic_mining")
            .workload(SelfReferencingMarket.name, num_buys=4)
            .seed(1)
            .build()
        )
        run_simulation(spec)
    finally:
        # Keep the process-wide registry clean for other tests.
        WORKLOAD_REGISTRY._entries.pop(SelfReferencingMarket.name)
    assert "SelfReferencingMarket" in cyclic_garbage()
