"""Every name the benchmark emits, in one place.

``BENCHMARK.json`` lists the same workloads and metrics (the harness test
holds the two to each other); ``run.py`` refuses to print a result that
lacks one of them or carries an extra.  No imports: the test reads this
without the program on the path.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

# (name, why) — the one line per workload BENCHMARK.json carries; README.md
# has the long form.
WORKLOADS: Tuple[Tuple[str, str], ...] = (
    (
        "figure2_sweep",
        "the paper's headline sweep, 60 trials on a 3-peer mesh: chain/evm/hms/txpool/rlp/keccak do the work, net almost none",
    ),
    (
        "gossip_1k",
        "BENCH_topology's random_k_1000 cell: 140k events flooding 1000 peers, so net is ~100% of it and evm runs 3 blocks",
    ),
    (
        "gossip_1k_faulty",
        "gossip_1k under drop/corrupt/delay/duplicate/crash faults: orphan buffering, range sync and post-window heal",
    ),
    (
        "horizon_15k",
        "15,000 fixed-interval blocks at retention 64: pruning, anchors, streaming metrics; catches speed bought with memory",
    ),
    (
        "service_closed",
        "2 closed-loop RPC clients on a 2-worker server: callers that wait for a reply; transport, not engine, dominates",
    ),
    (
        "service_open",
        "same server and mix, seeded Poisson arrivals at 100 req/s: the latency independent dApp front-ends see off saturation",
    ),
)
WORKLOAD_NAMES: Tuple[str, ...] = tuple(name for name, _why in WORKLOADS)


def simulator_workload(name: str) -> bool:
    """Runs inside the bench process on the simulated clock (so its layer
    counts repeat exactly), as opposed to against a served subprocess."""
    return not name.startswith("service_")


# (name, unit, better, bound)
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("throughput_rps", "1/s", "higher", 0.25),
    ("rpc_p50_ms", "ms", "lower", 0.25),
    ("raa_buy_ms", "ms", "lower", 0.25),
    ("slo_hit_ratio", "ratio", "higher", 0.05),
)

VERBS: Tuple[str, ...] = ("observe", "buy", "advance", "status", "receipt", "hms")
FAULT_KINDS: Tuple[str, ...] = ("drop", "corrupt", "delay", "duplicate", "crash")

# (name, unit, better).  "better" for a plain count of work says which way
# less waste lies; the counts themselves are compared with ==.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    # api
    ("api.trials", "count", "lower"),
    ("api.build_s", "s", "lower"),
    ("api.sweep.overhead_s", "s", "lower"),
    ("api.sweep.parallel_speedup_w2", "ratio", "higher"),
    # net
    ("net.sim.events", "count", "lower"),
    ("net.sim.step_self_s", "s", "lower"),
    ("net.sim.schedule_s", "s", "lower"),
    ("net.events_per_s", "1/s", "higher"),
    ("net.tx_deliveries", "count", "lower"),
    ("net.block_deliveries", "count", "lower"),
    ("net.block_duplicates", "count", "lower"),
    ("net.useful_delivery_ratio", "ratio", "higher"),
    ("net.receive_tx_s", "s", "lower"),
    ("net.receive_block_s", "s", "lower"),
    ("net.broadcast_s", "s", "lower"),
    ("net.topology_build_s", "s", "lower"),
    ("net.sync_requests", "count", "lower"),
    ("net.blocks_orphaned", "count", "lower"),
    ("net.blocks_dropped", "count", "lower"),
    ("net.heal_rounds", "count", "lower"),
    ("net.propagation_p95_sim_s", "s", "lower"),
    # consensus
    ("consensus.blocks", "count", "lower"),
    ("consensus.produce_block_s", "s", "lower"),
    ("obs.phase.mine_s", "s", "lower"),
    # chain
    ("chain.build_block_s", "s", "lower"),
    ("chain.add_block_s", "s", "lower"),
    ("obs.phase.block_import_s", "s", "lower"),
    ("obs.phase.validate_s", "s", "lower"),
    ("obs.phase.state_apply_s", "s", "lower"),
    ("obs.phase.trie_commit_s", "s", "lower"),
    ("obs.phase.gossip_encode_s", "s", "lower"),
    ("chain.wire_cache_hit_ratio", "ratio", "higher"),
    ("chain.live_states", "count", "lower"),
    # evm
    ("evm.execute_calls", "count", "lower"),
    ("evm.execute_s", "s", "lower"),
    ("evm.call_calls", "count", "lower"),
    ("evm.call_s", "s", "lower"),
    # core
    ("hms.read_calls", "count", "lower"),
    ("hms.read_uncommitted_s", "s", "lower"),
    ("raa.provide_s", "s", "lower"),
    ("hms.read_s.ratio_1", "s", "lower"),
    ("hms.read_s.ratio_20", "s", "lower"),
    ("metrics.resolve_s", "s", "lower"),
    ("obs.phase.metrics_fold_s", "s", "lower"),
    # txpool
    ("txpool.adds", "count", "lower"),
    ("txpool.add_s", "s", "lower"),
    ("txpool.remove_committed_s", "s", "lower"),
    # crypto / encoding
    ("crypto.keccak_calls", "count", "lower"),
    ("crypto.keccak_cache_hit_ratio", "ratio", "higher"),
    # faults
    *((f"faults.injections.{kind}", "count", "lower") for kind in FAULT_KINDS),
    ("faults.converged", "count", "higher"),
    # obs
    ("obs.trace_overhead_ratio", "ratio", "lower"),
    ("obs.events_recorded", "count", "lower"),
    ("obs.dropped_events", "count", "lower"),
    # service
    ("service.client_self_ms", "ms", "lower"),
    ("service.transport_ms", "ms", "lower"),
    ("service.pool_wait_ms", "ms", "lower"),
    ("service.dispatch_self_ms", "ms", "lower"),
    *((f"service.session_ms.{verb}", "ms", "lower") for verb in VERBS),
    *((f"service.verb_p50_ms.{verb}", "ms", "lower") for verb in VERBS),
    ("service.engine_advance_ms", "ms", "lower"),
    ("service.rejected_overload", "count", "lower"),
    ("service.client_retries", "count", "lower"),
    ("service.rpc_p99_ms.closed", "ms", "lower"),
    ("service.rpc_p99_ms.open", "ms", "lower"),
    ("loadgen.late_p99_ms", "ms", "lower"),
)

EXACT_COUNTS: Tuple[str, ...] = tuple(
    name
    for name, unit, _better in PER_LAYER
    if unit == "count" and not name.startswith("service.") and name != "chain.live_states"
)
"""Layer counts a deterministic simulator repeats exactly under one seed;
``compare.py`` holds these to ``==``.  The service's counters depend on
thread timing, and live states on when the collector last ran."""


END_TO_END_UNITS: Dict[str, str] = {name: unit for name, unit, _better, _bound in END_TO_END}
PER_LAYER_UNITS: Dict[str, str] = {name: unit for name, unit, _better in PER_LAYER}


def benchmark_json(command: List[str], paths: List[str], run_seconds: int) -> Dict[str, object]:
    """The ``BENCHMARK.json`` these lists describe."""
    return {
        "command": command,
        "paths": paths,
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better} for name, unit, better in PER_LAYER
        ],
    }
