"""The simulation engine: generic network wiring plus the measured run loop.

This module is the single place in the repository that stands up a
``Network`` of ``Peer`` objects, registers miners, and drives the
discrete-event loop.  Everything experiment-specific comes from the
:class:`~repro.workloads.base.Workload` the spec names; everything stochastic
is seeded from one :class:`~repro.api.seeding.SeedPlan` rooted at
``spec.seed``, so a spec is a complete, reproducible description of a run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..adversary import ADVERSARY_REGISTRY, Adversary
from ..chain.apply_cache import BlockApplyCache
from ..chain.genesis import DEFAULT_INITIAL_BALANCE, GenesisConfig
from ..consensus.interval import FixedInterval, PoissonInterval
from ..consensus.miner import MinerConfig
from ..consensus.policies import (
    ArrivalJitterPolicy,
    FeeArrivalPolicy,
    FifoPolicy,
    RandomPolicy,
)
from ..core.hms.semantic import SemanticMiningPolicy
from ..core.metrics import MetricsCollector, ThroughputReport
from ..crypto.addresses import address_from_label
from ..faults import FaultInjector
from ..net.latency import UniformLatency
from ..net.mining import BlockProductionProcess
from ..net.network import Network
from ..net.peer import Peer, SERETH_CLIENT
from ..net.sim import Simulator
from ..net.topology import BandwidthModel, ChurnPlan, Topology, resolve_topology
from ..obs import runtime as _obs_runtime
from ..obs.tracer import Tracer
from .checkpoint import spec_digest
from .registry import WORKLOAD_REGISTRY
from .seeding import SeedPlan
from .spec import SimulationSpec
from ..workloads.base import SimulationContext, Workload

__all__ = ["SimulationHandle", "SimulationResult", "run_simulation", "build_simulation"]


def _jsonable(value: Any) -> Any:
    """Render extras/report values into JSON-encodable equivalents."""
    if isinstance(value, bytes):
        return "0x" + value.hex()
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


@dataclass
class SimulationResult:
    """Everything one simulation run produced."""

    spec: SimulationSpec
    reports: Dict[str, ThroughputReport]
    primary_label: Optional[str]
    blocks_produced: int
    simulated_seconds: float
    metrics: MetricsCollector
    peers: List[Peer] = field(default_factory=list)
    extras: Dict[str, Any] = field(default_factory=dict)
    adversary_reports: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    """Per-adversary attack metrics, keyed by strategy name (``name@index``
    when the same strategy runs more than once)."""
    obs: Optional[Tracer] = None
    """The run's tracer when ``spec.observe`` was set, else ``None``."""

    def report(self, label: Optional[str] = None) -> ThroughputReport:
        """The throughput report for ``label`` (default: the primary label)."""
        key = label if label is not None else self.primary_label
        if key is None:
            return self.metrics.report()
        if key not in self.reports:
            raise KeyError(
                f"no report for label {key!r}; available: {sorted(self.reports)}"
            )
        return self.reports[key]

    @property
    def efficiency(self) -> float:
        """Transaction efficiency eta of the primary label."""
        return self.report().efficiency

    def summary(self) -> Dict[str, Any]:
        """A stable, JSON-ready digest — identical for identical specs, and
        the unit of comparison for serial-vs-parallel sweep equivalence."""
        data = {
            "spec": self.spec.describe(),
            "primary_label": self.primary_label,
            "efficiency": self.efficiency if self.primary_label else None,
            "reports": {
                label: _jsonable(report.as_dict())
                for label, report in sorted(self.reports.items())
            },
            "blocks_produced": self.blocks_produced,
            "simulated_seconds": self.simulated_seconds,
            "extras": _jsonable(self.extras),
            "adversaries": {
                key: _jsonable(report)
                for key, report in sorted(self.adversary_reports.items())
            },
        }
        if self.metrics is not None and self.metrics.streaming:
            # Streaming-only key: default (unbounded) summaries keep the
            # exact bytes the committed golden checksums were recorded on.
            data["metrics_windows"] = _jsonable(self.metrics.windows())
        if self.obs is not None:
            # Observability-only key, same emit-only-when-enabled rule.
            data["observability"] = self.obs.summary()
        return data


class SimulationHandle:
    """A fully wired (but not yet run) simulation.

    Built by :func:`build_simulation`; interactive consumers (the quickstart
    and interoperability examples) use the exposed ``simulator``, ``peers``,
    and ``workload`` to drive the network manually, while :meth:`run`
    executes the standard measured loop.
    """

    def __init__(self, spec: SimulationSpec, simulator: Optional[Simulator] = None) -> None:
        self.spec = spec
        self.seeds = SeedPlan(spec.seed)
        workload_class = WORKLOAD_REGISTRY.get(spec.workload)
        self.workload: Workload = workload_class(spec, **spec.params)
        self.adversaries: List[Adversary] = []
        for adversary_index, (adversary_name, adversary_params) in enumerate(spec.adversaries):
            adversary_class = ADVERSARY_REGISTRY.get(adversary_name)
            adversary = adversary_class(spec, **dict(adversary_params))
            adversary.assign_index(adversary_index)
            self.adversaries.append(adversary)

        # Warm workers hand in a reused Simulator; reset() makes it
        # indistinguishable from a fresh one, so results are identical.
        if simulator is None:
            simulator = Simulator()
        else:
            simulator.reset()
        self.simulator = simulator
        # One block-application cache per trial: all peers share validated
        # post-states (forked copy-on-write), and the cache dies with the
        # handle so nothing leaks across sweep cells.  With retention, the
        # cache additionally evicts templates that slide out of the window —
        # the cache is what pins old per-block states within a trial.
        self.apply_cache = BlockApplyCache(retain_blocks=spec.retention)
        latency = UniformLatency(
            low=max(spec.gossip_latency - spec.gossip_jitter, 0.001),
            high=spec.gossip_latency + spec.gossip_jitter,
            seed=self.seeds.latency,
        )
        self.network = Network(
            self.simulator,
            latency=latency,
            transaction_loss_rate=spec.transaction_loss_rate,
            seed=self.seeds.network,
            bandwidth=(
                BandwidthModel(**dict(spec.bandwidth))
                if spec.bandwidth is not None
                else None
            ),
            history_limit=spec.retention,
        )
        # Any network-model field set => the run reports propagation extras.
        self._network_realism = (
            spec.topology is not None or spec.bandwidth is not None or bool(spec.churn)
        )

        # Genesis: fund the workload's accounts and every miner, then let the
        # workload pre-deploy its contracts.
        genesis = GenesisConfig.for_labels(
            list(self.workload.account_labels()), balance=DEFAULT_INITIAL_BALANCE
        )
        for miner_index in range(spec.num_miners):
            genesis.fund(address_from_label(f"miner/miner-{miner_index}"))
        for adversary in self.adversaries:
            for label in adversary.account_labels():
                genesis.fund(address_from_label(label))
        # Service-facade callers: labels the spec names get genesis balances
        # too, so RPC clients can spend without piggybacking on a workload
        # account.
        for label in spec.extra_accounts:
            genesis.fund(address_from_label(label))
        self.workload.configure_genesis(genesis)
        self.genesis = genesis

        # Peers: miners first, then client peers, kinds from the scenario
        # (with per-peer overrides for mixed Sereth/Geth networks).
        self.peers: Dict[str, Peer] = {}
        self.miner_peers: List[Peer] = []
        self.client_peers: List[Peer] = []
        for miner_index in range(spec.num_miners):
            peer_id = f"miner-{miner_index}"
            peer = self.network.add_peer(
                Peer(
                    peer_id,
                    genesis,
                    client_kind=spec.client_kind_for(peer_id),
                    apply_cache=self.apply_cache,
                    retain_blocks=spec.retention,
                )
            )
            self.peers[peer_id] = peer
            self.miner_peers.append(peer)
        for client_index in range(spec.num_client_peers):
            peer_id = f"client-{client_index}"
            peer = self.network.add_peer(
                Peer(
                    peer_id,
                    genesis,
                    client_kind=spec.client_kind_for(peer_id),
                    apply_cache=self.apply_cache,
                    retain_blocks=spec.retention,
                )
            )
            self.peers[peer_id] = peer
            self.client_peers.append(peer)
        # Adversaries observe from their own peers, always running the Sereth
        # client: an attacker deploys the best software available regardless
        # of what the defense scenario gives its victims.
        self.adversary_peers: List[Peer] = []
        for adversary_index in range(len(self.adversaries)):
            peer_id = f"adversary-{adversary_index}"
            peer = self.network.add_peer(
                Peer(
                    peer_id,
                    genesis,
                    client_kind=SERETH_CLIENT,
                    apply_cache=self.apply_cache,
                    retain_blocks=spec.retention,
                )
            )
            self.peers[peer_id] = peer
            self.adversary_peers.append(peer)

        # Topology: built over the full peer roster (miners, clients,
        # adversaries, in insertion order) from a seed-plan-derived stream.
        # ``full_mesh`` keeps the legacy direct-broadcast path — on a
        # complete graph flooding only adds duplicate one-hop deliveries,
        # and the direct path is what the golden checksums were recorded
        # against — so the adjacency is neither built nor installed for it.
        self.topology: Optional[Topology] = None
        if spec.topology is not None:
            topology_name, topology_params = spec.topology
            if topology_name != "full_mesh":
                builder = resolve_topology(topology_name)(**dict(topology_params))
                self.topology = builder.build(
                    list(self.peers),
                    random.Random(self.seeds.derived("topology", topology_name)),
                )
                self.network.install_topology(self.topology)
        if spec.churn:
            self.network.schedule_churn(ChurnPlan.from_events(spec.churn))

        # Fault injection: built from the spec's frozen entries with per-fault
        # RNG streams off the seed plan, armed on the gossip seams, and crash
        # events scheduled like churn.  No faults => injector stays None and
        # the network keeps the golden-gated clean path.
        self.fault_injector: Optional[FaultInjector] = None
        if spec.faults:
            self.fault_injector = FaultInjector.from_spec(spec.faults, self.seeds)
            self.network.install_faults(self.fault_injector)
            miner_ids = {peer.peer_id for peer in self.miner_peers}
            # The append-only chain cannot reorg, so miner-bound block
            # deliveries are exempt from message faults (a miner that misses
            # a block would fork its lineage forever) — the receiver-side
            # twin of the no-crashing-miners rule below.
            self.fault_injector.protect_block_peers(miner_ids)
            self.fault_injector.schedule_peer_faults(
                self.simulator,
                self.network,
                miner_ids=miner_ids,
            )

        # HMS is a property of the Sereth client software: install the
        # workload's watched contracts on every Sereth peer.
        for peer in self.peers.values():
            if peer.client_kind == SERETH_CLIENT:
                for contract_address, set_selector in self.workload.hms_targets():
                    peer.install_hms(contract_address, set_selector)

        # Mining: interval model, the production race, per-miner policies.
        interval_model = (
            FixedInterval(spec.block_interval)
            if spec.fixed_block_interval
            else PoissonInterval(mean=spec.block_interval, seed=self.seeds.block_interval)
        )
        self.production = BlockProductionProcess(
            self.simulator,
            self.network,
            interval_model=interval_model,
            seed=self.seeds.production,
            history_limit=spec.retention,
        )
        miner_limits = MinerConfig(
            gas_limit=spec.block_gas_limit,
            max_transactions=spec.max_transactions_per_block,
        )
        semantic = self.workload.semantic_config()
        scenario = spec.scenario
        semantic_miner_count = round(spec.num_miners * scenario.semantic_miner_fraction)
        for miner_index, peer in enumerate(self.miner_peers):
            self.production.register_miner(
                peer,
                policy=self._miner_policy(miner_index, semantic, semantic_miner_count),
                miner_address=address_from_label(f"miner/{peer.peer_id}"),
                config=miner_limits,
            )

        # Clients and events.  The streaming knobs default to None/off, which
        # constructs the exact unbounded collector the golden bytes gate.
        self.metrics = MetricsCollector(
            metrics_window=spec.metrics_window,
            seed=self.seeds.derived("metrics"),
        )
        self.context = SimulationContext(
            spec=spec,
            seeds=self.seeds,
            simulator=self.simulator,
            network=self.network,
            peers=self.peers,
            miner_peers=self.miner_peers,
            client_peers=self.client_peers,
            metrics=self.metrics,
            adversary_peers=self.adversary_peers,
            production=self.production,
        )
        # Observability: one tracer per trial, activated only for the
        # duration of run() so untraced work in the same process stays on
        # the zero-cost path.  Per-trial probes read THIS run's counters;
        # the process-global probes (wire/hash caches, live states) come
        # from the registry when the tracer snapshots.
        self.tracer: Optional[Tracer] = None
        if spec.observe:
            simulator_ref = self.simulator
            self.tracer = Tracer(clock=lambda: simulator_ref.now)
            self.tracer.register_probe("network", self.network.stats.as_dict)
            self.tracer.register_probe("propagation", self.network.propagation_summary)
            # The probe holds the context, not this handle (which holds the
            # tracer), so a finished trial holds no reference cycle.
            context = self.context
            self.tracer.register_probe(
                "head_state_rss", lambda: context.reference_chain.state.rss_stats()
            )
            if self.fault_injector is not None:
                self.tracer.register_probe("faults", self.fault_injector.stats_dict)

        self.workload.setup(self.context)
        self.workload.schedule(self.context)

        # Adversaries bind last (they attack whatever the workload stood up)
        # with RNG streams derived from the run's seed plan.
        target = self.workload.adversary_target()
        for adversary_index, adversary in enumerate(self.adversaries):
            adversary.bind(
                self.context,
                self.adversary_peers[adversary_index],
                target,
                random.Random(self.seeds.adversary(adversary_index, adversary.name)),
            )
            adversary.start()

    def _miner_policy(self, miner_index: int, semantic, semantic_miner_count: int):
        spec = self.spec
        if spec.miner_policy is not None:
            # An explicit override beats the scenario default, semantic included.
            if spec.miner_policy == "random":
                return RandomPolicy(seed=self.seeds.miner(miner_index))
            if spec.miner_policy == "fifo":
                return FifoPolicy()
            if spec.miner_policy == "fee_arrival":
                return FeeArrivalPolicy()
            return ArrivalJitterPolicy(
                jitter_seconds=spec.miner_order_jitter, seed=self.seeds.miner(miner_index)
            )
        use_semantic = (
            spec.scenario.semantic_mining
            and miner_index < semantic_miner_count
            and semantic is not None
        )
        if use_semantic:
            return SemanticMiningPolicy(semantic)
        return ArrivalJitterPolicy(
            jitter_seconds=spec.miner_order_jitter, seed=self.seeds.miner(miner_index)
        )

    # -- interactive driving --------------------------------------------------------

    def start(self) -> "SimulationHandle":
        """Begin block production (for manual run_until driving)."""
        self.production.start()
        return self

    def run_until(self, time: float) -> "SimulationHandle":
        self.simulator.run_until(time)
        return self

    @property
    def reference_chain(self):
        return self.context.reference_chain

    # -- the measured loop ----------------------------------------------------------

    def run(self) -> SimulationResult:
        """Run the workload to completion (or the duration cap) and measure."""
        spec, workload, simulator = self.spec, self.workload, self.simulator
        tracer = self.tracer
        if tracer is not None:
            _obs_runtime.activate(tracer)
        try:
            return self._run_measured(spec, workload, simulator)
        finally:
            if tracer is not None:
                # Freeze the probe snapshot while the process-wide counters
                # still read this run's values, then leave the process untraced.
                tracer.finalize()
                _obs_runtime.deactivate()
            if tracer is not None and spec.trace_dir is not None:
                # Trace files are keyed by the spec's content digest, so a
                # sweep's workers land per-job files under one directory with
                # names stable across serial/parallel/resumed execution.
                tracer.write(spec.trace_dir, f"trace_{spec_digest(spec)}")

    def _run_measured(self, spec, workload, simulator) -> SimulationResult:
        self.production.start()

        if spec.retention is not None or self.metrics.streaming:
            # Bounded-memory runs must resolve watched transactions while
            # their blocks are still inside the retention window, so the
            # submission phase is driven in block-interval steps with a
            # resolution pass after each.  Stepping run_until changes no
            # event ordering; resolution is idempotent — but these modes are
            # opt-in, so default runs keep the single-call path regardless.
            end = workload.end_of_submissions
            while simulator.now < end:
                simulator.run_until(min(simulator.now + spec.block_interval, end))
                self.metrics.resolve_from_chain(self.reference_chain)
        else:
            simulator.run_until(workload.end_of_submissions)
        cap = workload.duration_cap(spec)
        while simulator.now < cap and not workload.is_complete(self.context):
            simulator.run_until(simulator.now + spec.block_interval)
            # Resolve incrementally so the loop can terminate as soon as possible.
            self.metrics.resolve_from_chain(self.reference_chain)
        self.production.stop()
        for adversary in self.adversaries:
            adversary.stop()
        if workload.post_stop_drain:
            simulator.run_until(simulator.now + workload.post_stop_drain)
        if self.fault_injector is not None:
            # Post-fault anti-entropy: when the run's *final* blocks were
            # dropped or corrupted, gossip alone can never heal the laggards —
            # nothing arrives afterwards to orphan and trigger a range sync.
            # Offer the best head around and drain; a second round catches
            # peers whose first sync raced a still-catching-up provider.
            # Faults-off runs never enter this branch, so default schedules
            # stay byte-identical.
            for _ in range(2):
                if self.network.heal_partitions() == 0:
                    break
                simulator.run_until(simulator.now + spec.block_interval)

        extras = workload.finalize(self.context)
        if self._network_realism:
            # Only runs that opted into the network model carry the
            # propagation digest — default runs keep their golden bytes.
            extras = dict(extras)
            extras["network"] = self.network.propagation_summary()
        if self.fault_injector is not None:
            # Fault runs additionally report injection counters and whether
            # the chain reconverged after the faults ceased — the signal the
            # chaos experiment's first claim gates on.  Emit-only-when-armed,
            # like the network digest above.
            extras = dict(extras)
            extras["faults"] = self._faults_summary()
        self.metrics.resolve_from_chain(self.reference_chain)
        labels = self.metrics.labels()
        reports = {label: self.metrics.report(label) for label in labels}
        return SimulationResult(
            spec=spec,
            reports=reports,
            primary_label=workload.primary_label,
            blocks_produced=self.production.blocks_produced,
            simulated_seconds=simulator.now,
            metrics=self.metrics,
            peers=list(self.peers.values()),
            extras=extras,
            adversary_reports=self._adversary_reports(),
            obs=self.tracer,
        )

    def _faults_summary(self) -> Dict[str, Any]:
        """Injection counters plus end-of-run convergence across all peers."""
        summary: Dict[str, Any] = self.fault_injector.summary()
        heads = {peer.chain.head.hash for peer in self.peers.values()}
        heights = [peer.chain.height for peer in self.peers.values()]
        summary["converged"] = len(heads) == 1
        summary["unique_heads"] = len(heads)
        summary["min_height"] = min(heights)
        summary["max_height"] = max(heights)
        summary["peer_restarts"] = sum(peer.restarts for peer in self.peers.values())
        return summary

    def _adversary_reports(self) -> Dict[str, Dict[str, Any]]:
        """Digest every adversary's attack into the result's metrics block."""
        name_counts: Dict[str, int] = {}
        for adversary in self.adversaries:
            name_counts[adversary.name] = name_counts.get(adversary.name, 0) + 1
        reports: Dict[str, Dict[str, Any]] = {}
        for adversary in self.adversaries:
            key = (
                adversary.name
                if name_counts[adversary.name] == 1
                else f"{adversary.name}@{adversary.index}"
            )
            reports[key] = adversary.report(self.context, self.workload.primary_label)
        return reports


def build_simulation(
    spec: SimulationSpec, simulator: Optional[Simulator] = None
) -> SimulationHandle:
    """Wire up (but do not run) the simulation ``spec`` describes.

    Passing a ``simulator`` reuses it (after a reset) instead of allocating
    a fresh event loop — the warm-worker path of the sweep engine.
    """
    return SimulationHandle(spec, simulator=simulator)


def run_simulation(
    spec: SimulationSpec, simulator: Optional[Simulator] = None
) -> SimulationResult:
    """Build and run ``spec``'s simulation; the facade's one entry point."""
    return SimulationHandle(spec, simulator=simulator).run()
