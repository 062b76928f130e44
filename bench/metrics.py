"""From repeats and spans to the named metrics.

End-to-end: every workload reports every metric (the benchmark contract
wants one fixed list per run).  A metric is *native* where the issue that
defined this benchmark scoped it, and *derived* elsewhere — the same
quantity for that workload's own unit of work, always an exact rescaling of
a native sample so it cannot wobble on its own.  ``README.md`` has the table.

Each entry is ``{"value", "unit", "per_repeat", "raw_median"}``: ``value``
is what is reported (the median over repeats; for percentiles, the
percentile of the pooled samples), ``per_repeat`` what ``compare.py`` takes
quartiles over, ``raw_median`` the same figure before host normalisation.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Optional, Sequence, Tuple

import loadgen
import registry
import stats
from workloads import Repeat

Entry = Dict[str, Any]


def _entry(name: str, value: float, per_repeat: Sequence[float], raw_median: Optional[float] = None) -> Entry:
    return {
        "value": value,
        "unit": registry.END_TO_END_UNITS[name],
        "per_repeat": list(per_repeat),
        "raw_median": value if raw_median is None else raw_median,
    }


def median_entry(name: str, per_repeat: Sequence[float], raw: Optional[Sequence[float]] = None) -> Entry:
    return _entry(
        name,
        statistics.median(per_repeat),
        per_repeat,
        statistics.median(raw) if raw is not None else None,
    )


def simulator_end_to_end(
    repeats: Sequence[Repeat], cal_s: Sequence[float], cal_ref_s: float, stated_units: int
) -> Dict[str, Entry]:
    """``wall_s`` and ``slo_hit_ratio`` are measured; the rest rescale ``wall_s``."""
    raw = [stats.scale_to_size(repeat.wall_s, repeat.units, stated_units) for repeat in repeats]
    wall = [stats.normalise(seconds, cal, cal_ref_s) for seconds, cal in zip(raw, cal_s)]
    per_unit_ms = [1000.0 * seconds / stated_units for seconds in wall]
    watched = repeats[0].facts["watched"]
    return {
        "wall_s": median_entry("wall_s", wall, raw),
        "throughput_rps": median_entry(
            "throughput_rps",
            [stated_units / seconds for seconds in wall],
            [stated_units / seconds for seconds in raw],
        ),
        "rpc_p50_ms": median_entry("rpc_p50_ms", per_unit_ms, [1000.0 * s / stated_units for s in raw]),
        "raa_buy_ms": median_entry(
            "raa_buy_ms", [1000.0 * seconds / watched for seconds in wall], [1000.0 * s / watched for s in raw]
        ),
        "slo_hit_ratio": median_entry(
            "slo_hit_ratio", [repeat.facts["slo"][0] / repeat.facts["slo"][1] for repeat in repeats]
        ),
    }


def _latencies_ms(samples: Sequence[loadgen.RequestSample]) -> List[float]:
    return [stats.open_loop_latency(sample.due, sample.done) * 1000.0 for sample in samples if sample.ok]


def generator_late_ms(repeat: Repeat) -> float:
    """The supported tail (p99 when the sample allows) of how late the
    generator sent each op."""
    late = [ms for loop in repeat.loops for ms in loadgen.late_ms(loop.ops)]
    return stats.tail(late)[1] if late else 0.0


def service_end_to_end(
    repeats: Sequence[Repeat], cal_s: Sequence[float], cal_ref_s: float, open_loop: bool
) -> Tuple[Dict[str, Entry], int]:
    """Returns the entries and how many repeats were ``generator_late``."""
    factors = [cal_ref_s / cal for cal in cal_s]
    requests: List[float] = []
    buys: List[float] = []
    per_repeat: Dict[str, List[float]] = {name: [] for name in ("p50", "buy", "slo", "wall", "rate")}
    raw: Dict[str, List[float]] = {name: [] for name in ("p50", "buy", "wall", "rate")}
    hits = scheduled = late_repeats = 0
    for repeat, factor in zip(repeats, factors):
        request_ms = _latencies_ms([s for loop in repeat.loops for s in loop.requests])
        buy_ms = _latencies_ms([op for loop in repeat.loops for op in loop.ops if op.verb == "buy"])
        requests.extend(value * factor for value in request_ms)
        buys.extend(value * factor for value in buy_ms)
        raw["p50"].append(statistics.median(request_ms))
        raw["buy"].append(statistics.median(buy_ms))
        # An open loop's window is set by its schedule, not by the host, so
        # it is left as measured.
        window_factor = 1.0 if open_loop else factor
        raw["wall"].append(repeat.wall_s)
        raw["rate"].append(repeat.units / repeat.wall_s)
        per_repeat["wall"].append(repeat.wall_s * window_factor)
        per_repeat["rate"].append(repeat.units / (repeat.wall_s * window_factor))
        for key in ("p50", "buy"):
            per_repeat[key].append(raw[key][-1] * factor)
        repeat_hits, repeat_scheduled = loadgen.slo_hits(
            [op for loop in repeat.loops for op in loop.ops], sum(loop.unsent_ops for loop in repeat.loops)
        )
        per_repeat["slo"].append(repeat_hits / repeat_scheduled)
        if open_loop and generator_late_ms(repeat) > loadgen.GENERATOR_LATE_LIMIT_MS:
            # A starved generator must not read as a slow server.
            late_repeats += 1
            continue
        hits += repeat_hits
        scheduled += repeat_scheduled
    slo = hits / scheduled if scheduled else statistics.median(per_repeat["slo"])
    entries = {
        "wall_s": median_entry("wall_s", per_repeat["wall"], raw["wall"]),
        "throughput_rps": median_entry("throughput_rps", per_repeat["rate"], raw["rate"]),
        "rpc_p50_ms": _entry("rpc_p50_ms", statistics.median(requests), per_repeat["p50"], statistics.median(raw["p50"])),
        "raa_buy_ms": _entry("raa_buy_ms", statistics.median(buys), per_repeat["buy"], statistics.median(raw["buy"])),
        "slo_hit_ratio": _entry("slo_hit_ratio", slo, per_repeat["slo"]),
    }
    return entries, late_repeats


# -- per-layer ----------------------------------------------------------------------------

Table = Dict[str, Dict[str, float]]


def _span(table: Table, name: str, key: str) -> float:
    return table.get(name, {}).get(key, 0.0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def simulator_layers(
    table: Table,
    observability: Sequence[Dict[str, Any]],
    probes_before: Dict[str, Dict[str, Any]],
    traced_wall_s: float,
) -> Dict[str, float]:
    """Layer metrics of one traced simulator repeat: times from the span
    table, counts from the ``obs`` probe snapshots.  A trial's own probes
    (network, faults) are summed over trials; the process-wide cache probes
    only ever count up, so they are read as last snapshot minus
    ``probes_before`` (taken just before the repeat)."""

    def probe(name: str, key: str) -> float:
        return sum((trial["probes"].get(name) or {}).get(key) or 0 for trial in observability)

    def process_probe(name: str, key: str) -> float:
        return observability[-1]["probes"][name][key] - probes_before[name][key]

    def phase(name: str) -> float:
        return sum(trial["phases"].get(name, {}).get("wall_seconds", 0.0) for trial in observability)

    deliveries = probe("network", "block_deliveries")
    keccak_hits, keccak_misses = process_probe("hash_cache", "hits"), process_probe("hash_cache", "misses")
    wire_hits, wire_misses = process_probe("wire_cache", "hits"), process_probe("wire_cache", "misses")
    events = _span(table, "Simulator.step", "calls")
    trials = _span(table, "SimulationHandle.run", "calls")
    trial_s = _span(table, "SimulationHandle.__init__", "total_s") + _span(table, "SimulationHandle.run", "total_s")
    values = {
        "api.trials": trials,
        "api.build_s": _span(table, "SimulationHandle.__init__", "total_s"),
        # What a sweep costs beyond its trials (plan, frame, export); a
        # single simulation has none.
        "api.sweep.overhead_s": traced_wall_s - trial_s if trials > 1 else 0.0,
        "net.sim.events": events,
        "net.sim.step_self_s": _span(table, "Simulator.step", "self_s"),
        "net.sim.schedule_s": _span(table, "Simulator.schedule_at", "total_s"),
        "net.events_per_s": _ratio(events, traced_wall_s),
        "net.tx_deliveries": probe("network", "transaction_deliveries"),
        "net.block_deliveries": deliveries,
        "net.block_duplicates": probe("network", "block_duplicates"),
        "net.useful_delivery_ratio": 1.0 - _ratio(probe("network", "block_duplicates"), deliveries) if deliveries else 0.0,
        "net.receive_tx_s": _span(table, "Peer.receive_transaction", "total_s"),
        "net.receive_block_s": _span(table, "Peer.receive_block", "total_s"),
        "net.broadcast_s": _span(table, "Network.broadcast_transaction", "total_s")
        + _span(table, "Network.broadcast_block", "total_s"),
        "net.topology_build_s": _span(table, "Network.install_topology", "total_s"),
        "net.sync_requests": probe("network", "sync_requests"),
        "net.blocks_orphaned": probe("network", "blocks_orphaned"),
        "net.blocks_dropped": probe("network", "blocks_dropped"),
        "net.heal_rounds": _span(table, "Network.heal_partitions", "calls"),
        "net.propagation_p95_sim_s": max(
            ((trial["probes"].get("propagation") or {}).get("block_propagation_p95") or 0.0 for trial in observability),
            default=0.0,
        ),
        "consensus.blocks": _span(table, "Miner.produce_block", "calls"),
        "consensus.produce_block_s": _span(table, "Miner.produce_block", "total_s"),
        "chain.build_block_s": _span(table, "Blockchain.build_block", "total_s"),
        "chain.add_block_s": _span(table, "Blockchain.add_block", "total_s"),
        "chain.wire_cache_hit_ratio": _ratio(wire_hits, wire_hits + wire_misses),
        "chain.live_states": max(
            ((trial["probes"].get("live_state") or {}).get("live_states", 0) for trial in observability), default=0
        ),
        "evm.execute_calls": _span(table, "ExecutionEngine.execute", "calls"),
        "evm.execute_s": _span(table, "ExecutionEngine.execute", "total_s"),
        "evm.call_calls": _span(table, "ExecutionEngine.call", "calls"),
        "evm.call_s": _span(table, "ExecutionEngine.call", "total_s"),
        "hms.read_calls": _span(table, "HashMarkSet.read_uncommitted", "calls"),
        "hms.read_uncommitted_s": _span(table, "HashMarkSet.read_uncommitted", "total_s"),
        "raa.provide_s": _span(table, "HMSRAAProvider.provide", "total_s"),
        "metrics.resolve_s": _span(table, "MetricsCollector.resolve_from_chain", "total_s"),
        "txpool.adds": _span(table, "TxPool.add", "calls"),
        "txpool.add_s": _span(table, "TxPool.add", "total_s"),
        "txpool.remove_committed_s": _span(table, "TxPool.remove_committed", "total_s"),
        "crypto.keccak_calls": keccak_hits + keccak_misses,
        "crypto.keccak_cache_hit_ratio": _ratio(keccak_hits, keccak_hits + keccak_misses),
        "faults.converged": 0.0,
        "obs.events_recorded": sum(trial["events"] for trial in observability),
        "obs.dropped_events": sum(trial["dropped_events"] for trial in observability),
    }
    for name in ("mine", "block_import", "validate", "state_apply", "trie_commit", "gossip_encode", "metrics_fold"):
        values[f"obs.phase.{name}_s"] = phase(name)
    for kind in registry.FAULT_KINDS:
        values[f"faults.injections.{kind}"] = probe("faults", f"injected_{kind}")
    return values


SESSION_SPAN_OF_VERB = {
    "observe": "ServiceSession.call",
    "buy": "ServiceSession.submit",
    "advance": "ServiceSession.advance",
    "status": "ServiceSession.status",
    "receipt": "ServiceSession.receipt",
    "hms": "ServiceSession.hms_status",
}


def service_layers(table: Table, client_cpu_s: float) -> Dict[str, float]:
    """Where one request's milliseconds go, as per-request means over the
    traced closed-loop window.  ``table`` holds the client's
    ``ServiceClient.request`` spans and the server's spans together."""
    count = _span(table, "ServiceClient.request", "calls")
    client_s = _span(table, "ServiceClient.request", "total_s")
    execute_s = _span(table, "ServiceServer.execute", "total_s")
    dispatch = table.get("SimulatorService.dispatch", {})

    def per_request_ms(seconds: float) -> float:
        return 1000.0 * _ratio(seconds, count)

    values = {
        "service.client_self_ms": per_request_ms(client_cpu_s),
        # Everything between the client's span and the server's execute span
        # that is not client CPU: TCP connect, thread spawn, HTTP parse, JSON.
        "service.transport_ms": per_request_ms(client_s - execute_s - client_cpu_s),
        "service.pool_wait_ms": per_request_ms(execute_s - dispatch.get("total_s", 0.0)),
        "service.dispatch_self_ms": per_request_ms(dispatch.get("self_s", 0.0)),
        "service.engine_advance_ms": 1000.0
        * _ratio(_span(table, "Simulator.run_until", "total_s"), _span(table, "ServiceSession.advance", "calls")),
    }
    for verb, span_name in SESSION_SPAN_OF_VERB.items():
        values[f"service.session_ms.{verb}"] = 1000.0 * _ratio(
            _span(table, span_name, "total_s"), _span(table, span_name, "calls")
        )
    return values


def verb_medians_ms(repeat: Repeat) -> Dict[str, float]:
    by_verb: Dict[str, List[float]] = {}
    for loop in repeat.loops:
        for op in loop.ops:
            if op.ok:
                by_verb.setdefault(op.verb, []).append((op.done - op.due) * 1000.0)
    return {
        f"service.verb_p50_ms.{verb}": statistics.median(by_verb[verb]) if by_verb.get(verb) else 0.0
        for verb in registry.VERBS
    }


def complete_layers(values: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    """Every registered layer metric, 0 where this workload has no such layer."""
    unknown = set(values) - set(registry.PER_LAYER_UNITS)
    if unknown:
        raise KeyError(f"unregistered layer metrics: {sorted(unknown)}")
    return {
        name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in registry.PER_LAYER_UNITS.items()
    }
