"""Closed- and open-loop load generation against a running service.

The generator answers the operational question the facade raises: what tail
latency does a *served* simulation deliver under concurrent clients?  Each
client owns one session (the paper's market workload at smoke scale) and
issues a deterministic, seeded mix of the real RPC verbs — READ-UNCOMMITTED
``mark``/``get`` observations, client-side-encoded Sereth ``buy``
submissions, block advances, receipt polls.

Two loop disciplines, because they measure different things:

* **closed** — each client issues its next request the moment the previous
  one returns; latency is pure service time and throughput is the
  saturation rate for that client count.
* **open** — arrivals are scheduled by an arrival process (regular /
  Poisson / bursty) regardless of completions, and latency is measured from
  the *scheduled* arrival, so queueing delay is included (no
  coordinated-omission blind spot: a late client does not sleep off its
  backlog).

Results land in the ``{"baseline", "current", "deltas"}`` bench shape the
repo's other BENCH files use; ``--smoke`` gates on a zero error rate, a p95
ceiling, and byte-identical summaries from two same-spec sessions.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..contracts.sereth import SerethContract
from ..core.hms.fpv import BUY_FLAG
from ..core.percentiles import percentile
from ..encoding.hexutil import from_hex, to_bytes32
from ..workloads.arrivals import BurstyArrivals, PoissonArrivals, RegularArrivals
from .client import ServiceClient
from .errors import ServiceClientError, ServiceRPCError

__all__ = ["LoadgenConfig", "run_loadgen", "write_bench", "format_report"]

_BUY_ABI = SerethContract.function_by_name("buy").abi
_PLACEHOLDER = ["0x" + "00" * 32] * 3
"""The RAA argument placeholder: three zero words the peer's Hash-Mark-Set
view substitutes on ``mark``/``get`` (the READ-UNCOMMITTED read path)."""

_MIXES: Dict[str, Dict[str, Any]] = {
    # The paper's READ-UNCOMMITTED market at smoke scale: Sereth clients,
    # semantic mining, a handful of buys so a session advances quickly.
    "market": {
        "scenario": "semantic_mining",
        "workload": "market",
        "params": {"num_buys": 6, "buys_per_set": 2.0, "submission_interval": 1.0},
        "clients": 2,
        "max_duration": 240.0,
    },
    # The READ-COMMITTED baseline (unmodified-geth scenario), same shape.
    "market_committed": {
        "scenario": "geth_unmodified",
        "workload": "market",
        "params": {"num_buys": 6, "buys_per_set": 2.0, "submission_interval": 1.0},
        "clients": 2,
        "max_duration": 240.0,
    },
    # A heavier market: more buys per session, higher buy:set ratio.
    "market_heavy": {
        "scenario": "semantic_mining",
        "workload": "market",
        "params": {"num_buys": 12, "buys_per_set": 4.0, "submission_interval": 1.0},
        "clients": 3,
        "max_duration": 360.0,
    },
}

# Weighted operation mix: mostly reads (the paper's workload is read-heavy),
# a steady trickle of writes and block advances.
_OP_WEIGHTS: Sequence[Tuple[str, int]] = (
    ("observe", 5),
    ("buy", 2),
    ("advance", 2),
    ("status", 2),
    ("receipt", 1),
    ("hms", 1),
)


@dataclass
class LoadgenConfig:
    """One load-generation run against ``url``."""

    url: str
    clients: int = 4
    requests_per_client: int = 25
    mode: str = "closed"  # closed | open | both
    arrival: str = "regular"  # regular | poisson | bursty (open loop only)
    rate: float = 50.0
    """Open-loop target arrival rate per client, in requests per second."""
    mix: str = "market"
    seed: int = 0
    timeout: float = 60.0
    smoke: bool = False
    p95_ceiling_ms: float = 2000.0

    def __post_init__(self) -> None:
        if self.clients <= 0 or self.requests_per_client <= 0:
            raise ValueError("clients and requests_per_client must be positive")
        if self.mode not in ("closed", "open", "both"):
            raise ValueError(f"unknown mode {self.mode!r}; expected closed|open|both")
        if self.arrival not in ("regular", "poisson", "bursty"):
            raise ValueError(f"unknown arrival {self.arrival!r}")
        if self.mix not in _MIXES:
            raise ValueError(f"unknown mix {self.mix!r}; known: {sorted(_MIXES)}")
        if self.rate <= 0:
            raise ValueError("rate must be positive")

    @property
    def modes(self) -> Tuple[str, ...]:
        return ("closed", "open") if self.mode == "both" else (self.mode,)


@dataclass
class _Sample:
    op: str
    latency_ms: float
    ok: bool
    error_kind: Optional[str] = None


def _arrival_process(config: LoadgenConfig, client_index: int):
    interval = 1.0 / config.rate
    if config.arrival == "regular":
        return RegularArrivals(interval)
    if config.arrival == "poisson":
        return PoissonArrivals(interval, seed=config.seed * 1000 + client_index)
    return BurstyArrivals(
        burst_size=5, gap=interval * 10, spread=interval, seed=config.seed * 1000 + client_index
    )


class _SessionDriver:
    """One client's session plus the state its operation mix needs."""

    def __init__(self, client: ServiceClient, config: LoadgenConfig, index: int) -> None:
        self.client = client
        self.account = f"loadgen-{index}"
        self.rng = random.Random((config.seed, config.mix, index).__repr__())
        spec = dict(_MIXES[config.mix])
        spec["accounts"] = [self.account]
        self.session = client.create_session(**spec)
        # Let the workload's own contract deployment and opening price commit
        # before the mix starts reading the market.
        client.advance(self.session, blocks=3)
        watched = client.hms_status(self.session)["watched"]
        self.contract = watched[0]["contract"] if watched else None
        self.last_tx: Optional[str] = None
        ops, weights = zip(*_OP_WEIGHTS)
        self.ops = ops
        self.weights = weights

    def next_op(self) -> str:
        op = self.rng.choices(self.ops, weights=self.weights, k=1)[0]
        if op in ("observe", "buy", "hms") and self.contract is None:
            return "status"
        if op == "receipt" and self.last_tx is None:
            return "status"
        return op

    def perform(self, op: str) -> None:
        client, session = self.client, self.session
        if op == "observe":
            client.call_contract_method(session, self.contract, "mark", [_PLACEHOLDER])
        elif op == "buy":
            mark = client.call_contract_method(session, self.contract, "mark", [_PLACEHOLDER])
            price = client.call_contract_method(session, self.contract, "get", [_PLACEHOLDER])
            offer = [
                BUY_FLAG,
                to_bytes32(from_hex(mark["values"][0])),
                to_bytes32(from_hex(price["values"][0])),
            ]
            data = "0x" + _BUY_ABI.encode_call(offer).hex()
            submitted = client.submit_transaction(
                session, self.account, self.contract, data=data
            )
            self.last_tx = submitted["transaction_hash"]
        elif op == "advance":
            client.advance(session, blocks=1)
        elif op == "status":
            client.session_status(session)
        elif op == "receipt":
            client.receipt(session, self.last_tx)
        elif op == "hms":
            client.hms_status(session)
        else:  # pragma: no cover - mix table and dispatch kept in sync
            raise ValueError(f"unknown op {op!r}")

    def close(self) -> None:
        try:
            self.client.close_session(self.session)
        except ServiceClientError:
            pass


def _timed(driver: _SessionDriver, op: str, started_at: float) -> _Sample:
    try:
        driver.perform(op)
    except ServiceRPCError as error:
        return _Sample(op, (time.perf_counter() - started_at) * 1000.0, False, error.kind)
    except ServiceClientError:
        return _Sample(op, (time.perf_counter() - started_at) * 1000.0, False, "connection")
    except Exception as error:
        # A transport failure the client layer did not wrap (e.g. a server
        # killed mid-body on an old client) is still a transport error to the
        # load generator — record it instead of letting the worker thread die
        # and silently under-count its remaining requests.
        return _Sample(
            op,
            (time.perf_counter() - started_at) * 1000.0,
            False,
            f"transport:{type(error).__name__}",
        )
    return _Sample(op, (time.perf_counter() - started_at) * 1000.0, True)


def _closed_loop(driver: _SessionDriver, count: int, samples: List[_Sample]) -> None:
    for _ in range(count):
        op = driver.next_op()
        samples.append(_timed(driver, op, time.perf_counter()))


def _open_loop(
    driver: _SessionDriver,
    offsets: Sequence[float],
    origin: float,
    samples: List[_Sample],
) -> None:
    for offset in offsets:
        scheduled = origin + offset
        delay = scheduled - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        op = driver.next_op()
        # Latency is measured from the *scheduled* arrival: a request that
        # queued behind a slow predecessor pays for the wait.
        samples.append(_timed(driver, op, scheduled))


def _latency_summary(samples: Sequence[float]) -> Dict[str, Any]:
    if not samples:
        return {"count": 0}
    ordered = sorted(samples)
    return {
        "count": len(ordered),
        "mean_ms": round(sum(ordered) / len(ordered), 3),
        "p50_ms": round(percentile(ordered, 0.50, presorted=True), 3),
        "p95_ms": round(percentile(ordered, 0.95, presorted=True), 3),
        "p99_ms": round(percentile(ordered, 0.99, presorted=True), 3),
        "max_ms": round(ordered[-1], 3),
    }


def _run_mode(mode: str, config: LoadgenConfig, client: ServiceClient) -> Dict[str, Any]:
    drivers = [_SessionDriver(client, config, index) for index in range(config.clients)]
    per_client: List[List[_Sample]] = [[] for _ in drivers]
    threads: List[threading.Thread] = []
    started = time.perf_counter()
    try:
        if mode == "closed":
            for index, driver in enumerate(drivers):
                threads.append(
                    threading.Thread(
                        target=_closed_loop,
                        args=(driver, config.requests_per_client, per_client[index]),
                        name=f"loadgen-closed-{index}",
                    )
                )
        else:
            origin = time.perf_counter()
            for index, driver in enumerate(drivers):
                offsets = _arrival_process(config, index).times(
                    config.requests_per_client, 0.0
                )
                threads.append(
                    threading.Thread(
                        target=_open_loop,
                        args=(driver, offsets, origin, per_client[index]),
                        name=f"loadgen-open-{index}",
                    )
                )
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        duration = time.perf_counter() - started
    finally:
        for driver in drivers:
            driver.close()

    samples = [sample for bucket in per_client for sample in bucket]
    errors = [sample for sample in samples if not sample.ok]
    by_op: Dict[str, List[float]] = {}
    for sample in samples:
        by_op.setdefault(sample.op, []).append(sample.latency_ms)
    return {
        "mode": mode,
        "clients": config.clients,
        "requests_per_client": config.requests_per_client,
        "operations": len(samples),
        "duration_s": round(duration, 3),
        "throughput_rps": round(len(samples) / duration, 3) if duration > 0 else None,
        "errors": len(errors),
        "error_rate": round(len(errors) / len(samples), 6) if samples else 0.0,
        "error_kinds": sorted({sample.error_kind for sample in errors if sample.error_kind}),
        "latency_ms": _latency_summary([sample.latency_ms for sample in samples]),
        "by_op": {
            op: _latency_summary(latencies) for op, latencies in sorted(by_op.items())
        },
    }


def _determinism_check(config: LoadgenConfig, client: ServiceClient) -> Dict[str, Any]:
    """Two sessions from the same spec must derive the same seed and run to
    byte-identical summaries — the served engine is as reproducible as a
    direct ``run_simulation``."""
    spec = dict(_MIXES[config.mix])
    first = client.create_session_info(**spec)
    second = client.create_session_info(**spec)
    try:
        summaries = [
            json.dumps(client.run(str(info["session"])), sort_keys=True)
            for info in (first, second)
        ]
    finally:
        for info in (first, second):
            try:
                client.close_session(str(info["session"]))
            except ServiceClientError:
                pass
    return {
        "ok": summaries[0] == summaries[1] and first["seed"] == second["seed"],
        "seed": first["seed"],
        "sessions": [str(first["session"]), str(second["session"])],
    }


def run_loadgen(config: LoadgenConfig) -> Dict[str, Any]:
    """Drive the configured load against the server and return the report.

    One :class:`ServiceClient` serves the whole run: set-up and the
    determinism check on the calling thread's connection, each load thread
    on its own."""
    with ServiceClient(config.url, timeout=config.timeout) as client:
        client.ping()
        modes = {mode: _run_mode(mode, config, client) for mode in config.modes}
        determinism = _determinism_check(config, client)

    worst_p95 = max(
        (result["latency_ms"].get("p95_ms", 0.0) or 0.0 for result in modes.values()),
        default=0.0,
    )
    total_errors = sum(result["errors"] for result in modes.values())
    gates = {
        "error_rate_zero": total_errors == 0,
        "p95_under_ceiling": worst_p95 <= config.p95_ceiling_ms,
        "determinism_ok": determinism["ok"],
    }
    return {
        "config": {
            "url": config.url,
            "clients": config.clients,
            "requests_per_client": config.requests_per_client,
            "mode": config.mode,
            "arrival": config.arrival,
            "rate": config.rate,
            "mix": config.mix,
            "seed": config.seed,
            "p95_ceiling_ms": config.p95_ceiling_ms,
        },
        "modes": modes,
        "determinism": determinism,
        "gates": gates,
        "passed": all(gates.values()),
    }


# -- bench file -----------------------------------------------------------------------


def _bench_metrics(report: Dict[str, Any]) -> Dict[str, Any]:
    metrics: Dict[str, Any] = {
        "error_rate": max(
            (result["error_rate"] for result in report["modes"].values()), default=0.0
        ),
        "determinism_ok": bool(report["determinism"]["ok"]),
    }
    for mode, result in sorted(report["modes"].items()):
        latency = result["latency_ms"]
        metrics[f"{mode}_throughput_rps"] = result["throughput_rps"]
        metrics[f"{mode}_p50_ms"] = latency.get("p50_ms")
        metrics[f"{mode}_p95_ms"] = latency.get("p95_ms")
        metrics[f"{mode}_p99_ms"] = latency.get("p99_ms")
    return metrics


def write_bench(report: Dict[str, Any], path: Path) -> Dict[str, Any]:
    """Write ``path`` in the repo's BENCH shape: a pinned ``baseline`` (kept
    from an existing file), the ``current`` run, and numeric ``deltas``."""
    path = Path(path)
    current = _bench_metrics(report)
    baseline = current
    if path.exists():
        try:
            baseline = json.loads(path.read_text())["baseline"]
        except (json.JSONDecodeError, KeyError, TypeError):
            baseline = current
    deltas = {}
    for key, value in current.items():
        base = baseline.get(key)
        if isinstance(value, (int, float)) and not isinstance(value, bool) and isinstance(
            base, (int, float)
        ) and not isinstance(base, bool):
            deltas[key] = round(value - base, 3)
    bench = {
        "benchmark": "repro.service loadgen",
        "config": report["config"],
        "baseline": baseline,
        "current": current,
        "deltas": deltas,
        "passed": report["passed"],
    }
    path.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    return bench


def format_report(report: Dict[str, Any]) -> str:
    """A terminal-friendly rendering of a loadgen report."""
    lines = [
        f"loadgen against {report['config']['url']} "
        f"(mix={report['config']['mix']}, clients={report['config']['clients']}, "
        f"requests/client={report['config']['requests_per_client']})"
    ]
    for mode, result in sorted(report["modes"].items()):
        latency = result["latency_ms"]
        lines.append(
            f"  {mode:>6}: {result['operations']} ops in {result['duration_s']}s "
            f"({result['throughput_rps']} req/s), errors={result['errors']}"
        )
        if latency.get("count"):
            lines.append(
                f"          p50={latency['p50_ms']}ms p95={latency['p95_ms']}ms "
                f"p99={latency['p99_ms']}ms max={latency['max_ms']}ms"
            )
    determinism = report["determinism"]
    lines.append(
        f"  determinism: {'ok' if determinism['ok'] else 'DRIFT'} "
        f"(seed={determinism['seed']}, sessions={determinism['sessions']})"
    )
    lines.append(f"  gates: {report['gates']} -> {'PASS' if report['passed'] else 'FAIL'}")
    return "\n".join(lines)
