"""The six workloads: how each is built from the seed, run once, and checked.

Every workload is driven through the repo's public surface (``repro.api``,
``repro.service``); nothing here reaches into a layer.  Why each exists is
in ``registry.WORKLOADS`` (one line) and ``README.md`` (a paragraph).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api import (
    ExperimentOptions,
    Simulation,
    build_simulation,
    execute_plan,
    plan_experiment,
    run_simulation,
)
from repro.service import ServiceClient, build_session_spec
from repro.service.errors import ServiceClientError

import loadgen

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SIZES: Dict[str, Dict[str, Any]] = {
    "full": {"trials": 4, "peers": 1000, "blocks": 15_000, "ops": 600, "open_span_s": 3.0},
    "smoke": {"trials": 1, "peers": 100, "blocks": 2_000, "ops": 100, "open_span_s": 1.0},
}
SERVICE_CLIENTS = 2
OPEN_RATE_PER_CLIENT = 50.0
VICTIM_BUYS = 8
BLOCK_INTERVAL = 13.0

def peak_rss_mb(pid: Any = "self") -> float:
    """A process's resident high-water mark, from ``VmHWM``.  Not
    ``ru_maxrss``: Linux carries that across ``exec``, so a fresh child would
    start at its parent's size."""
    status = Path(f"/proc/{pid}/status").read_text(encoding="utf-8")
    return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0


def sha256_json(value: Any) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode("utf-8")).hexdigest()


@dataclass
class Repeat:
    """What one repeat of a workload produced."""

    wall_s: float
    """The timed window, raw seconds."""
    units: int
    """Units of work done: trials, simulator events, blocks, or OK requests."""
    attempted: int
    failed: int
    digest: Optional[str] = None
    """sha256 of the output the golden file pins (simulator workloads)."""
    facts: Dict[str, Any] = field(default_factory=dict)
    """What the output checks read."""
    loops: List[loadgen.LoopResult] = field(default_factory=list)
    observability: List[Dict[str, Any]] = field(default_factory=list)
    """Per-trial ``observability`` summaries (traced pass only)."""


def _victim_facts(summary: Dict[str, Any]) -> Dict[str, Any]:
    victim = summary["reports"]["victim-buy"]
    facts = {
        "watched": victim["submitted"],
        "slo": [victim["successful"], victim["submitted"]],
        "victim_harm": victim["submitted"] - victim["successful"],
        "overpaid": summary["extras"].get("overpaid", 0),
    }
    if "faults" in summary["extras"]:
        facts["converged"] = bool(summary["extras"]["faults"]["converged"])
        facts["injections"] = summary["extras"]["faults"]["injections"]
    return facts


class SimWorkload:
    """A workload that runs in this process."""

    in_process = True
    name = ""
    unit = ""

    def setup(self, seed: int, size: str) -> None:
        self.seed, self.size = seed, size

    def run_once(self, repeat_index: int = 0, observe: bool = False) -> Repeat:
        raise NotImplementedError

    def check(self, repeats: Sequence[Repeat]) -> List[str]:
        """Output checks that hold on any seed; returns failure messages."""
        raise NotImplementedError

    def teardown(self) -> None:
        pass


class Figure2Sweep(SimWorkload):
    name = "figure2_sweep"
    unit = "trial"

    def setup(self, seed: int, size: str) -> None:
        super().setup(seed, size)
        self.trials = SIZES[size]["trials"]
        _experiment, _options, sweep = plan_experiment("figure2", self._options(workers=1))
        self.job_tags = [tags for _spec, tags in sweep.jobs()]

    def _options(self, workers: int) -> ExperimentOptions:
        return ExperimentOptions(workers=workers, trials=self.trials, seed=self.seed)

    def run_once(self, repeat_index: int = 0, observe: bool = False, workers: int = 1) -> Repeat:
        options = self._options(workers)
        started = time.perf_counter()
        experiment, options, sweep = plan_experiment("figure2", options)
        if observe:
            sweep = sweep.observed()
        run = execute_plan(experiment, options, sweep)
        export = run.export_frame().to_json()
        wall = time.perf_counter() - started
        frame = run.frame
        buys = [row["summary"]["reports"]["buy"] for row in frame.rows()]
        # The paper's promise is eta -> 1 under the full HMS defence; the
        # baselines' eta is what it is (and moves with the seed).
        defended = [row["summary"]["reports"]["buy"] for row in frame.filter(scenario="semantic_mining").rows()]
        facts = {
            "eta": {
                scenario: frame.mean("eta", scenario=scenario)
                for scenario in ("geth_unmodified", "sereth_client", "semantic_mining")
            },
            "watched": sum(report["submitted"] for report in buys),
            "slo": [sum(report["successful"] for report in defended), sum(report["submitted"] for report in defended)],
        }
        observability = (
            [row["summary"]["observability"] for row in frame.rows()] if observe else []
        )
        return Repeat(
            wall_s=wall,
            units=len(frame),
            attempted=len(frame),
            failed=0,
            digest=hashlib.sha256(export.encode("utf-8")).hexdigest(),
            facts=facts,
            observability=observability,
        )

    def check(self, repeats: Sequence[Repeat]) -> List[str]:
        eta = repeats[0].facts["eta"]
        geth, sereth, semantic = eta["geth_unmodified"], eta["sereth_client"], eta["semantic_mining"]
        if not geth < sereth <= semantic:
            return [f"mean eta not ordered geth < sereth <= semantic: {geth:.3f} {sereth:.3f} {semantic:.3f}"]
        return []


class Gossip(SimWorkload):
    """``BENCH_topology.json``'s ``random_k`` cell, through the public builder."""

    name = "gossip_1k"
    unit = "event"
    faulty = False

    def setup(self, seed: int, size: str) -> None:
        super().setup(seed, size)
        builder = (
            Simulation.builder()
            .scenario("semantic_mining")
            .workload("victim_market", num_victim_buys=VICTIM_BUYS, buy_interval=2.0)
            .miners(2)
            .clients(SIZES[size]["peers"])
            .block_interval(BLOCK_INTERVAL)
            .gossip(0.07, 0.05)
            .gas(max_transactions_per_block=12)
            .topology("random_k")
            .bandwidth(1_250_000.0)
            .adversary("displacement")
            .seed(seed)
        )
        if self.faulty:
            # The chaos experiment's combined/light mix: message faults stop
            # one block interval after the last victim buy, so the run has to
            # heal, not limp; the crash victim is not the market victim's peer.
            until = 5.0 + VICTIM_BUYS * 2.0 + BLOCK_INTERVAL
            builder = (
                builder.fault("drop", rate=0.08, target="block", until=until)
                .fault("corrupt", rate=0.08, target="block", until=until)
                .fault("duplicate", rate=0.08, target="tx", spread=0.5, until=until)
                .fault("delay", rate=0.16, target="block", extra=0.3, jitter=0.4, until=until)
                .fault("crash", peer="client-1", at=8.0, downtime=8.0)
            )
        self.spec = builder.build()
        self.observed_spec = builder.observe().build()

    def run_once(self, repeat_index: int = 0, observe: bool = False) -> Repeat:
        started = time.perf_counter()
        handle = build_simulation(self.observed_spec if observe else self.spec)
        summary = handle.run().summary()
        wall = time.perf_counter() - started
        observability = [summary.pop("observability")] if observe else []
        return Repeat(
            wall_s=wall,
            units=handle.simulator.events_processed,
            attempted=1,
            failed=0,
            digest=sha256_json(summary),
            facts=_victim_facts(summary),
            observability=observability,
        )

    def check(self, repeats: Sequence[Repeat]) -> List[str]:
        facts = repeats[0].facts
        failures = []
        if facts["victim_harm"] or facts["overpaid"]:
            failures.append(f"victim harm {facts['victim_harm']}, overpaid {facts['overpaid']} (both must be 0)")
        if self.faulty and not (facts["converged"] and facts["injections"] > 0):
            failures.append(f"did not reconverge after {facts['injections']} injected faults")
        return failures


class GossipFaulty(Gossip):
    name = "gossip_1k_faulty"
    faulty = True


class Horizon(SimWorkload):
    name = "horizon_15k"
    unit = "block"

    def setup(self, seed: int, size: str) -> None:
        super().setup(seed, size)
        self.blocks = SIZES[size]["blocks"]
        builder = (
            Simulation.builder()
            .scenario("geth_unmodified")
            .workload("steady_state", num_blocks=self.blocks, blocks_per_set=8)
            .miners(1)
            .clients(1)
            .block_interval(2.0, fixed=True)
            .retention(64)
            .metrics_window(512.0)
            .seed(seed)
        )
        self.spec = builder.build()
        self.observed_spec = builder.observe().build()

    def run_once(self, repeat_index: int = 0, observe: bool = False) -> Repeat:
        started = time.perf_counter()
        summary = run_simulation(self.observed_spec if observe else self.spec).summary()
        wall = time.perf_counter() - started
        observability = [summary.pop("observability")] if observe else []
        steady = summary["reports"]["steady"]
        return Repeat(
            wall_s=wall,
            units=summary["blocks_produced"],
            attempted=1,
            failed=0,
            digest=sha256_json(summary),
            facts={
                "efficiency": summary["efficiency"],
                "blocks": summary["blocks_produced"],
                "watched": steady["submitted"],
                "slo": [steady["successful"], steady["submitted"]],
            },
            observability=observability,
        )

    def check(self, repeats: Sequence[Repeat]) -> List[str]:
        facts = repeats[0].facts
        if facts["efficiency"] != 1.0 or facts["blocks"] < self.blocks:
            return [f"eta {facts['efficiency']} over {facts['blocks']} blocks (need 1.0 over >= {self.blocks})"]
        return []


# -- the served workloads ---------------------------------------------------------------


class Server:
    """``repro serve`` as a subprocess on a free local port."""

    def __init__(self, traced_spans: Optional[Path] = None) -> None:
        serve = ["serve", "--port", "0", "--workers", "2", "--retention", "64"]
        if traced_spans is None:
            command = [sys.executable, "-u", "-m", "repro.cli", *serve]
        else:
            command = [sys.executable, "-u", str(BENCH_DIR / "serve_traced.py"), str(traced_spans), *serve]
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src")] + ([environment["PYTHONPATH"]] if environment.get("PYTHONPATH") else [])
        )
        self.process = subprocess.Popen(
            command, cwd=REPO_ROOT, env=environment, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
        )
        self.url = self._read_url()
        self.client = ServiceClient(self.url, timeout=30.0)
        self.client.ping()

    def _read_url(self) -> str:
        seen = []
        assert self.process.stdout is not None
        for line in self.process.stdout:
            seen.append(line)
            match = re.search(r"serving at (http://\S+)", line)
            if match:
                return match.group(1)
        self.process.wait()
        raise RuntimeError("server exited before announcing its URL:\n" + "".join(seen))

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        if self.process.poll() is None:
            try:
                self.client.shutdown_server()
                self.process.wait(timeout=20.0)
            except (ServiceClientError, subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


class ServiceWorkload:
    in_process = False
    name = ""
    unit = "request"
    mode = ""

    def __init__(self) -> None:
        self.server: Optional[Server] = None

    def setup(self, seed: int, size: str) -> None:
        self.seed, self.size = seed, size
        self.ops_per_client = SIZES[size]["ops"]
        self.server = Server()
        # Session create + warm-up is part of what a user waits for before
        # the first useful request, so one session is opened (and closed)
        # inside set-up.
        loadgen.SessionDriver(self.server.client, seed, 0, -1).close()

    def _drivers(self, server: Server, repeat_index: int, clients: int) -> List[loadgen.SessionDriver]:
        return [
            loadgen.SessionDriver(ServiceClient(server.url, timeout=30.0), self.seed, index, repeat_index)
            for index in range(clients)
        ]

    def run_once(
        self,
        repeat_index: int = 0,
        observe: bool = False,
        server: Optional[Server] = None,
        clients: int = SERVICE_CLIENTS,
        mode: Optional[str] = None,
    ) -> Repeat:
        server = server or self.server
        mode = mode or self.mode
        drivers = self._drivers(server, repeat_index, clients)
        loops = [loadgen.LoopResult() for _ in drivers]
        try:
            if mode == "closed":
                targets = [
                    (lambda d=driver, i=index, r=loops[index]: loadgen.closed_loop(
                        d, loadgen.op_sequence(self.seed, i, repeat_index, self.ops_per_client), r))
                    for index, driver in enumerate(drivers)
                ]
                wall = loadgen.run_clients(targets)
            else:
                span = SIZES[self.size]["open_span_s"]
                schedules = [
                    loadgen.poisson_offsets(self.seed, index, repeat_index, OPEN_RATE_PER_CLIENT, span)
                    for index in range(len(drivers))
                ]
                origin = time.perf_counter() + 0.05
                deadline = origin + 3.0 * span
                targets = [
                    (lambda d=driver, i=index, r=loops[index]: loadgen.open_loop(
                        d, loadgen.op_sequence(self.seed, i, repeat_index, len(schedules[i])), schedules[i],
                        origin, deadline, r))
                    for index, driver in enumerate(drivers)
                ]
                loadgen.run_clients(targets)
                # An open loop's window is first due time to last answer: it
                # only exceeds the schedule's own span when a backlog built up.
                wall = max(sample.done for loop in loops for sample in loop.requests) - origin
            retries = sum(driver.client.retries_performed for driver in drivers)
        finally:
            for driver in drivers:
                driver.close()
        requests = [sample for loop in loops for sample in loop.requests]
        unsent = sum(loop.unsent_ops for loop in loops)
        failed = sum(1 for sample in requests if not sample.ok) + unsent
        return Repeat(
            wall_s=wall,
            units=len(requests) - (failed - unsent),
            attempted=len(requests) + unsent,
            failed=failed,
            facts={"client_retries": retries},
            loops=loops,
        )

    def check(self, repeats: Sequence[Repeat]) -> List[str]:
        """Two same-spec sessions must summarise byte-identically, and equal
        a direct ``run_simulation`` of the spec the server builds."""
        request = dict(loadgen.SESSION_SPEC, seed=self.seed % (2**31))
        client = self.server.client
        sessions = [client.create_session(**request) for _ in range(2)]
        try:
            served = [json.dumps(client.run(session), sort_keys=True) for session in sessions]
        finally:
            for session in sessions:
                client.close_session(session)
        direct = json.dumps(
            run_simulation(build_session_spec(request, retention_default=64)).summary(), sort_keys=True
        )
        failures = []
        if served[0] != served[1]:
            failures.append("two same-spec sessions summarised differently")
        if served[0] != direct:
            failures.append("a served session's summary differs from a direct run_simulation")
        return failures

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()


class ServiceClosed(ServiceWorkload):
    name = "service_closed"
    mode = "closed"


class ServiceOpen(ServiceWorkload):
    name = "service_open"
    mode = "open"


WORKLOADS: Tuple[type, ...] = (Figure2Sweep, Gossip, GossipFaulty, Horizon, ServiceClosed, ServiceOpen)
BY_NAME: Dict[str, type] = {cls.name: cls for cls in WORKLOADS}
