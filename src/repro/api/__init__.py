"""``repro.api`` — the single entry point for running anything in this repo.

The facade has four pieces:

* :class:`Simulation` / :class:`SimulationBuilder` — fluent construction of
  an immutable :class:`SimulationSpec` describing one run;
* the **registries** — scenarios (``geth_unmodified``, ``sereth_client``,
  ``semantic_mining``), workloads (``market``, ``ticket_sale``, ``auction``,
  ``oracle``, ``sequential``, ``victim_market``, ``frontrunning``,
  ``steady_state`` — see :mod:`repro.workloads`), and
  adversaries (``displacement``, ``insertion``, ``suppression``,
  ``censoring_miner``, ``stale_oracle`` — see :mod:`repro.adversary`)
  resolved by name, with decorator-based registration for plugins;
* the **engine** — :func:`run_simulation` wires the network, miners, and
  clients for a spec and drives the measured run loop (the only place in
  the repository that touches ``Network``/``Peer`` directly);
* the **sweep engine** — :class:`Sweep` expands parameter grids
  (ratios x scenarios x trials) into specs and executes them serially or on
  a ``multiprocessing`` pool, deterministically either way — resumably,
  when given a JSONL ``checkpoint``;
* the **experiment layer** — :mod:`repro.api.experiment` drives registered,
  declarative experiments (``figure2``, ``attack_matrix``, …) through one
  ``plan -> execute -> analyze -> check_claims -> export`` lifecycle, with
  results analyzed in a columnar :class:`~repro.api.frame.ResultFrame`.

Quickstart::

    from repro.api import ResultFrame, Simulation, Sweep

    spec = (
        Simulation.builder()
        .scenario("semantic_mining")
        .workload("market", buys_per_set=4.0, num_buys=50)
        .miners(1).clients(2).seed(42)
        .build()
    )
    print(Simulation(spec).run().efficiency)

    figure2 = ResultFrame.from_sweep(Sweep(spec).over(
        scenario=["geth_unmodified", "sereth_client", "semantic_mining"],
        buys_per_set=[1.0, 2.0, 10.0],
    ).trials(3).run(workers=4))
    figure2.to_csv("figure2.csv")
    figure2.mean("efficiency", scenario="semantic_mining")

    from repro.api import run_experiment, ExperimentOptions
    run = run_experiment("figure2", ExperimentOptions(workers=4))
    assert run.passed  # the paper's headline claim gates
"""

from __future__ import annotations

from ..adversary import ADVERSARY_REGISTRY, Adversary, AdversaryTarget, register_adversary
from ..chain.chain import ChainAnchor
from ..chain.errors import PrunedHistoryError
from ..chain.state import StateSnapshot, live_state_stats
from ..experiments.scenario import (
    GETH_UNMODIFIED,
    SEMANTIC_MINING,
    SERETH_CLIENT_SCENARIO,
    Scenario,
)
from ..net.topology import (
    BandwidthModel,
    ChurnPlan,
    TOPOLOGY_REGISTRY,
    Topology,
    register_topology,
    topology_names,
)
from ..obs import (
    Tracer,
    fold_phases,
    format_hot_phase_table,
    hot_phase_frame,
    probe_names,
    register_probe,
    unregister_probe,
)
from .builder import BuildError, Simulation, SimulationBuilder
from .checkpoint import CheckpointMismatchError, SweepCheckpoint, spec_digest, sweep_digest
from .engine import (
    SimulationHandle,
    SimulationResult,
    build_simulation,
    run_simulation,
)
from .experiment import (
    Claim,
    ClaimCheck,
    EXPERIMENT_REGISTRY,
    Experiment,
    ExperimentOptions,
    ExperimentRun,
    GridExperiment,
    execute_plan,
    plan_experiment,
    register_experiment,
    run_experiment,
)
from .frame import ResultFrame
from .lifecycle import reset_process_caches
from .registry import (
    Registry,
    RegistryError,
    SCENARIO_REGISTRY,
    WORKLOAD_REGISTRY,
    register_scenario,
    register_workload,
)
from .seeding import SeedPlan, derive_seed
from .spec import SimulationSpec, freeze_adversaries, freeze_params
from .sweep import Sweep, SweepResult, SweepRow
from ..workloads.base import SimulationContext, Workload, sereth_exchange_address

__all__ = [
    "ADVERSARY_REGISTRY",
    "Adversary",
    "AdversaryTarget",
    "BandwidthModel",
    "BuildError",
    "ChurnPlan",
    "ChainAnchor",
    "CheckpointMismatchError",
    "Claim",
    "ClaimCheck",
    "EXPERIMENT_REGISTRY",
    "Experiment",
    "ExperimentOptions",
    "ExperimentRun",
    "GETH_UNMODIFIED",
    "GridExperiment",
    "PrunedHistoryError",
    "Registry",
    "RegistryError",
    "ResultFrame",
    "SCENARIO_REGISTRY",
    "SEMANTIC_MINING",
    "SERETH_CLIENT_SCENARIO",
    "Scenario",
    "SeedPlan",
    "Simulation",
    "SimulationBuilder",
    "SimulationContext",
    "SimulationHandle",
    "SimulationResult",
    "SimulationSpec",
    "StateSnapshot",
    "Sweep",
    "SweepCheckpoint",
    "SweepResult",
    "SweepRow",
    "TOPOLOGY_REGISTRY",
    "Topology",
    "Tracer",
    "WORKLOAD_REGISTRY",
    "Workload",
    "build_simulation",
    "derive_seed",
    "execute_plan",
    "fold_phases",
    "format_hot_phase_table",
    "freeze_adversaries",
    "freeze_params",
    "hot_phase_frame",
    "live_state_stats",
    "probe_names",
    "register_adversary",
    "register_experiment",
    "register_probe",
    "register_scenario",
    "register_topology",
    "plan_experiment",
    "register_workload",
    "topology_names",
    "run_experiment",
    "reset_process_caches",
    "run_simulation",
    "sereth_exchange_address",
    "spec_digest",
    "sweep_digest",
    "unregister_probe",
]


# Register the paper's three scenarios; plugins add theirs via
# ``register_scenario`` at import time.
for _scenario in (GETH_UNMODIFIED, SERETH_CLIENT_SCENARIO, SEMANTIC_MINING):
    if _scenario.name not in SCENARIO_REGISTRY:
        register_scenario(_scenario)
del _scenario
