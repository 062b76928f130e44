"""The benchmark's own service load: op mix, session driver, closed and open loops.

Built on ``ServiceClient`` verbs only, and kept here rather than borrowed
from ``repro.service.loadgen`` so that editing the repo's load generator
cannot change the load the benchmark applies.

One *op* is what a dApp front-end does in one go; the ``buy`` op is the
paper's read-uncommitted-then-submit path (``mark`` -> ``get`` -> encode ->
``tx.submit``) and is three requests, every other op is one.  Every request
is timed on its own; ``buy`` is also timed as a whole.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.contracts.sereth import SerethContract
from repro.core.hms.fpv import BUY_FLAG
from repro.encoding.hexutil import from_hex, to_bytes32
from repro.service.errors import ServiceClientError

import stats

OP_WEIGHTS: Sequence[Tuple[str, int]] = (
    ("observe", 5),
    ("buy", 2),
    ("advance", 2),
    ("status", 2),
    ("receipt", 1),
    ("hms", 1),
)

SESSION_SPEC: Dict[str, Any] = {
    "scenario": "semantic_mining",
    "workload": "market",
    "params": {"num_buys": 6, "buys_per_set": 2.0, "submission_interval": 1.0},
    "clients": 2,
    "max_duration": 240.0,
}
WARMUP_BLOCKS = 3
"""Blocks advanced after ``session.create`` so the workload's own contract
deployment and opening price are committed before the mix reads the market."""

PLACEHOLDER = ["0x" + "00" * 32] * 3
"""The RAA argument placeholder: three zero words the peer's Hash-Mark-Set
view substitutes on ``mark``/``get`` (the READ-UNCOMMITTED read path)."""

BUY_ABI = SerethContract.function_by_name("buy").abi

SLO_MS = 25.0
GENERATOR_LATE_LIMIT_MS = 5.0


def op_sequence(seed: int, client_index: int, repeat_index: int, count: int) -> List[str]:
    """The seeded op stream of one client in one repeat."""
    rng = random.Random(f"{seed}/ops/{client_index}/{repeat_index}")
    ops, weights = zip(*OP_WEIGHTS)
    return rng.choices(ops, weights=weights, k=count)


def poisson_offsets(seed: int, client_index: int, repeat_index: int, rate: float, span_s: float) -> List[float]:
    """Seeded Poisson arrival offsets at ``rate``/s covering ``span_s`` seconds."""
    rng = random.Random(f"{seed}/arrivals/{client_index}/{repeat_index}")
    offsets: List[float] = []
    at = rng.expovariate(rate)
    while at < span_s:
        offsets.append(at)
        at += rng.expovariate(rate)
    return offsets


@dataclass
class RequestSample:
    """One request as the client saw it (seconds on ``perf_counter``)."""

    verb: str
    due: float
    sent: float
    done: float
    ok: bool


@dataclass
class LoopResult:
    requests: List[RequestSample] = field(default_factory=list)
    ops: List[RequestSample] = field(default_factory=list)
    """One entry per op, spanning all of its requests (``buy``: three)."""
    unsent_ops: int = 0
    cpu_s: float = 0.0
    """CPU seconds the client thread itself burned (encode, connect, decode)."""


class SessionDriver:
    """One client's session plus what its op mix needs to remember."""

    def __init__(self, client: Any, seed: int, index: int, repeat_index: int) -> None:
        self.client = client
        self.account = f"bench-{index}"
        spec = dict(SESSION_SPEC)
        spec["accounts"] = [self.account]
        spec["seed"] = (seed * 1_000_003 + repeat_index * 101 + index) % (2**31)
        self.session = client.create_session(**spec)
        client.advance(self.session, blocks=WARMUP_BLOCKS)
        self.contract = client.hms_status(self.session)["watched"][0]["contract"]
        self.last_tx: Optional[str] = None

    def perform(self, op: str, due: float, result: LoopResult) -> None:
        """Issue ``op``'s requests, appending one sample per request and one
        for the op as a whole.  The first request of an op inherits the op's
        due time; a follow-up request is due the moment its predecessor
        returns."""
        client, session = self.client, self.session
        if op == "receipt" and self.last_tx is None:
            op = "status"
        op_sent = time.perf_counter()
        ok = True

        def request(verb: str, call: Callable[[], Any], request_due: float) -> Any:
            nonlocal ok
            sent = time.perf_counter()
            try:
                value = call()
            except ServiceClientError:
                value = None
            done = time.perf_counter()
            result.requests.append(RequestSample(verb, request_due, sent, done, value is not None))
            ok = ok and value is not None
            return value

        def view(function: str) -> Callable[[], Any]:
            return lambda: client.call_contract_method(session, self.contract, function, [PLACEHOLDER])

        if op == "observe":
            request(op, view("mark"), due)
        elif op == "buy":
            # The paper's RAA flow: read the uncommitted mark and price, bind
            # the offer to them, submit.
            mark = request("mark", view("mark"), due)
            price = request("get", view("get"), time.perf_counter()) if mark is not None else None
            if price is not None:
                offer = [BUY_FLAG, to_bytes32(from_hex(mark["values"][0])), to_bytes32(from_hex(price["values"][0]))]
                data = "0x" + BUY_ABI.encode_call(offer).hex()
                submitted = request(
                    "submit",
                    lambda: client.submit_transaction(session, self.account, self.contract, data=data),
                    time.perf_counter(),
                )
                if submitted is not None:
                    self.last_tx = submitted["transaction_hash"]
        elif op == "advance":
            request(op, lambda: client.advance(session, blocks=1), due)
        elif op == "status":
            request(op, lambda: client.session_status(session), due)
        elif op == "receipt":
            request(op, lambda: client.receipt(session, self.last_tx), due)
        elif op == "hms":
            request(op, lambda: client.hms_status(session), due)
        else:
            raise ValueError(f"unknown op {op!r}")
        result.ops.append(RequestSample(op, due, op_sent, time.perf_counter(), ok))

    def close(self) -> None:
        try:
            self.client.close_session(self.session)
        except ServiceClientError:
            pass


def closed_loop(driver: SessionDriver, ops: Sequence[str], result: LoopResult) -> None:
    """Next op the moment the previous one returns; due == sent."""
    cpu_started = time.thread_time()
    for op in ops:
        driver.perform(op, time.perf_counter(), result)
    result.cpu_s = time.thread_time() - cpu_started


def open_loop(
    driver: SessionDriver,
    ops: Sequence[str],
    offsets: Sequence[float],
    origin: float,
    deadline: float,
    result: LoopResult,
) -> None:
    """Each op is due at ``origin + offset`` whatever happened to the one
    before.  Ops still unsent at ``deadline`` are counted, not dropped
    silently: they miss the SLO."""
    for position, (op, offset) in enumerate(zip(ops, offsets)):
        due = origin + offset
        now = time.perf_counter()
        if now > deadline:
            result.unsent_ops += len(offsets) - position
            return
        if due > now:
            time.sleep(due - now)
        driver.perform(op, due, result)


def run_clients(targets: Sequence[Callable[[], None]]) -> float:
    """Run one thread per target to completion; returns the wall window."""
    threads = [threading.Thread(target=target, name=f"bench-client-{index}") for index, target in enumerate(targets)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - started


def late_ms(ops: Sequence[RequestSample]) -> List[float]:
    """How late the generator itself sent each op of one client, in order.
    An op held back because the client was still waiting for the previous
    answer is the server's doing and already counts in its latency from the
    due time; the generator's own lateness starts when the op was due *and*
    the client was free."""
    late = []
    free_at = float("-inf")
    for op in ops:
        late.append((op.sent - max(op.due, free_at)) * 1000.0)
        free_at = op.done
    return late


def slo_hits(ops: Sequence[RequestSample], unsent: int) -> Tuple[int, int]:
    """``(hits, scheduled)``: an op hits when it was answered OK within
    ``SLO_MS`` of its due time; failed and unsent ops are misses."""
    hits = sum(
        1
        for op in ops
        if op.ok and stats.open_loop_latency(op.due, op.done) * 1000.0 <= SLO_MS
    )
    return hits, len(ops) + unsent
