"""Dispatch-level contract of the service: sessions, errors, determinism.

These tests drive :meth:`SimulatorService.dispatch` directly — no HTTP, no
threads — so they pin the *semantic* behaviour of every RPC verb: spec
construction and its session-level rules (accounts, retention default,
derived seeds), the full deploy → advance → receipt → call data path, the
typed error taxonomy (hostile numeric arguments included, each answered
within a second on a watchdog thread), idle eviction, and idempotent close.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

import repro.contracts  # noqa: F401  (registers the shipped contracts)
from repro.api.checkpoint import spec_digest
from repro.api import Simulation, sereth_exchange_address
from repro.api.registry import WORKLOAD_REGISTRY
from repro.contracts.simple_storage import SimpleStorageContract
from repro.encoding.hexutil import to_hex
from repro.service.errors import (
    InvalidParamsError,
    MethodNotFoundError,
    ServiceError,
    SessionNotFoundError,
    TooManySessionsError,
)
from repro.service.server import ServiceConfig, SimulatorService
from repro.service.session import (
    SERVED_MAX,
    build_session_spec,
    derive_session_seed,
    session_id_for,
)
from tests.workloads.test_declarations import HOSTILE_WORKLOAD_PARAMS

SET_VALUE_ABI = SimpleStorageContract.function_by_name("set_value").abi

SMALL_SPEC = {"params": {"num_buys": 4}, "accounts": ["alice"]}


OVERSIZED_REQUESTS = [
    pytest.param({"clients": 10**7}, id="clients"),
    pytest.param({"miners": 10**7}, id="miners"),
    pytest.param({"params": {"num_buys": 10**9}}, id="num_buys"),
    pytest.param({"topology": {"name": "region_hub", "params": {"regions": 10**8}}}, id="topology"),
    pytest.param(
        {"churn": [["leave" if index % 2 == 0 else "join", 40.0 + index, "client-1"] for index in range(1025)]},
        id="churn",
    ),
]
"""One request per served-size ceiling, each past it: under a 1 GiB
address-space cap the first four end in ``MemoryError`` without one."""

RATIO_AMPLIFIERS = [
    pytest.param({"params": {"num_buys": 6, "buys_per_set": 1e-9}}, id="market.num_sets"),
    pytest.param({"workload": "oracle", "params": {"price_change_interval": 1e-9}}, id="oracle.price_steps"),
    pytest.param({"workload": "victim_market", "params": {"reprice_interval": 1e-9}}, id="victim_market.reprice_steps"),
    pytest.param(
        {"workload": "oracle", "params": {"price_change_interval": 5e-324}}, id="oracle.price_steps-overflow"
    ),
]
"""Requests whose every parameter is within its own ceiling but whose ratio
books one event per nanosecond of a run: without a ceiling on the derived
count, the first two ended in ``MemoryError`` under a 1 GiB address-space
cap after 9.8 s and 8.0 s.  A ratio past the largest float (the last case)
has no integer count at all, and is refused the same way."""

SIZED_SPEC_REQUESTS = {
    "num_miners": lambda size: {"miners": size},
    "num_client_peers": lambda size: {"clients": size},
    "topology": lambda size: {"topology": {"name": "region_hub", "params": {"regions": size}}},
    "churn": lambda size: {
        "churn": [["leave" if index % 2 == 0 else "join", 40.0 + index, "client-1"] for index in range(size)]
    },
}
"""A ``session.create`` request of a given size, per capped spec field."""


def _ceiling_cases():
    cases = [
        pytest.param(SIZED_SPEC_REQUESTS[name], ceiling, id=name)
        for name, (_render, ceiling) in SERVED_MAX.items()
        if name in SIZED_SPEC_REQUESTS
    ]
    for workload in WORKLOAD_REGISTRY.names():
        for name, _canon, _default, *served_max in WORKLOAD_REGISTRY.get(workload).params:
            if served_max:
                request = lambda size, workload=workload, name=name: {
                    "workload": workload,
                    "params": {name: size},
                }
                cases.append(pytest.param(request, served_max[0], id=f"{workload}.{name}"))
    return cases


CEILING_CASES = _ceiling_cases()
"""Every declared ``served_max``: a spec knob's or a workload parameter's."""


@pytest.fixture
def service():
    instance = SimulatorService(ServiceConfig(idle_timeout=None, retention_default=None))
    yield instance
    instance.close()


class TestBuildSessionSpec:
    def test_defaults(self):
        spec = build_session_spec({})
        assert spec.scenario_name == "semantic_mining"
        assert spec.workload == "market"

    def test_accounts_become_extra_accounts(self):
        spec = build_session_spec({"accounts": ["alice", "bob"]})
        assert spec.extra_accounts == ("alice", "bob")

    def test_retention_default_applies_when_absent(self):
        spec = build_session_spec({}, retention_default=64)
        assert spec.retention == 64

    def test_explicit_null_retention_beats_default(self):
        spec = build_session_spec({"retention": None}, retention_default=64)
        assert spec.retention is None

    def test_explicit_retention_wins(self):
        spec = build_session_spec({"retention": 32}, retention_default=64)
        assert spec.retention == 32

    def test_missing_seed_is_derived_from_digest(self):
        first = build_session_spec({"params": {"num_buys": 4}})
        second = build_session_spec({"params": {"num_buys": 4}})
        assert first.seed == second.seed == derive_session_seed(first)
        # A different spec derives a different seed.
        assert build_session_spec({"params": {"num_buys": 5}}).seed != first.seed

    def test_explicit_seed_wins(self):
        assert build_session_spec({"seed": 7}).seed == 7

    def test_experiment_route(self):
        spec = build_session_spec({"experiment": "figure2", "smoke": True})
        assert spec.workload == "market"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(InvalidParamsError):
            build_session_spec({"experiment": "nope"})

    def test_unknown_fields_rejected(self):
        with pytest.raises(InvalidParamsError) as excinfo:
            build_session_spec({"bogus": 1})
        assert "bogus" in str(excinfo.value)

    def test_fixed_block_interval_alone_is_honoured(self, service):
        created = service.dispatch("session.create", dict(SMALL_SPEC, fixed_block_interval=True))
        assert created["spec"]["fixed_block_interval"] is True
        assert created["spec"]["block_interval"] == 13.0

    def test_network_model_fields_are_served(self, service):
        created = service.dispatch(
            "session.create",
            dict(
                SMALL_SPEC,
                faults=[{"name": "drop", "params": {"rate": 0.1}}],
                bandwidth=500000,
                churn=[["leave", 40.0, "client-1"]],
                miner_policy="fifo",
            ),
        )
        spec = created["spec"]
        assert spec["faults"] == [{"name": "drop", "params": {"rate": 0.1}}]
        assert spec["bandwidth"] == {"bytes_per_second": 500000.0}
        assert spec["churn"] == [["leave", 40.0, "client-1"]]
        assert spec["miner_policy"] == "fifo"

    def test_observe_accepted_and_trace_dir_rejected(self):
        assert build_session_spec({"observe": True}).observe is True
        with pytest.raises(InvalidParamsError, match="server-side directory"):
            build_session_spec({"trace_dir": "traces"})

    @pytest.mark.parametrize("request_params", OVERSIZED_REQUESTS)
    def test_oversized_request_is_invalid_params_at_once(self, service, request_params):
        """A count past its ``served_max`` is refused before anything is
        built, so one request cannot exhaust the server's memory."""
        started = time.perf_counter()
        with pytest.raises(InvalidParamsError, match="capped at"):
            service.dispatch("session.create", request_params)
        assert time.perf_counter() - started < 0.1
        assert service.dispatch("session.list", {}) == {"sessions": []}

    @pytest.mark.parametrize("request_params", RATIO_AMPLIFIERS)
    def test_ratio_amplifier_is_invalid_params_at_once(self, request_params):
        """The count a workload derives from a ratio of its parameters is
        capped like a declared count: refused before anything is built."""
        started = time.perf_counter()
        with pytest.raises(InvalidParamsError, match="derived from params"):
            build_session_spec(request_params)
        assert time.perf_counter() - started < 0.1

    def test_derived_ceiling_is_inclusive(self):
        at_ceiling = {"params": {"num_buys": 10_000, "buys_per_set": 1.0}}
        assert build_session_spec(at_ceiling).params["buys_per_set"] == 1.0
        with pytest.raises(InvalidParamsError, match="num_sets"):
            build_session_spec({"params": {"num_buys": 10_000, "buys_per_set": 0.9999}})

    def test_reprice_steps_bounds_what_the_schedule_books(self):
        """``reprice_steps`` is never below the reprices ``schedule`` books,
        including where the loop's float-accumulated times book one more
        than the exact count."""
        drifted = 0
        for buys, buy_interval, reprice_interval in itertools.product(
            (1, 3, 7, 40), (0.3, 1.0, 2.0, 2.7), (0.1, 0.2, 0.3, 0.7, 1.1, 2.0, 13.0)
        ):
            spec = Simulation.builder().scenario("semantic_mining").workload(
                "victim_market",
                num_victim_buys=buys,
                buy_interval=buy_interval,
                reprice_interval=reprice_interval,
            ).build()
            workload = WORKLOAD_REGISTRY.get("victim_market")(spec, **spec.params)
            booked = []
            workload.owner_client, workload.victim = None, SimpleNamespace(buy=None)
            workload.schedule(
                SimpleNamespace(simulator=SimpleNamespace(schedule_at=lambda at, *_: booked.append(at)), metrics=None)
            )
            reprices = len(booked) - 1 - buys  # less the opening price and the buys
            end, interval = Fraction(workload.end_of_submissions), Fraction(reprice_interval)
            exact = math.ceil((end - Fraction(1, 2)) / interval) - 1
            drifted += reprices > exact
            assert reprices <= workload.reprice_steps <= reprices + 3, (buys, buy_interval, reprice_interval)
        assert drifted, "the grid no longer reaches a drifted schedule"

    def test_every_derived_count_is_a_workload_attribute(self):
        for name in WORKLOAD_REGISTRY.names():
            workload_class = WORKLOAD_REGISTRY.get(name)
            for attribute, _ceiling in workload_class.served_counts:
                assert isinstance(getattr(workload_class, attribute), property), (name, attribute)

    def test_direct_specs_are_not_capped(self):
        spec = Simulation.builder().scenario("geth_unmodified").clients(300).build()
        assert spec.num_client_peers == 300

    def test_every_capped_spec_field_has_a_sized_request(self):
        assert sorted(SIZED_SPEC_REQUESTS) == sorted(SERVED_MAX)

    @pytest.mark.parametrize("request_of_size, ceiling", CEILING_CASES)
    def test_ceiling_is_inclusive(self, request_of_size, ceiling):
        """A count equal to its ``served_max`` is served; one more is not."""
        build_session_spec(request_of_size(ceiling))
        with pytest.raises(InvalidParamsError, match="capped at"):
            build_session_spec(request_of_size(ceiling + 1))

    def test_session_ids_are_digest_plus_ordinal(self, service):
        digest = spec_digest(build_session_spec(dict(SMALL_SPEC)))
        assert session_id_for(digest, 0) == f"{digest}-0"
        created = service.dispatch("session.create", dict(SMALL_SPEC))
        assert created["spec_digest"] == digest
        assert created["session"] == session_id_for(digest, 0)
        status = service.dispatch("session.status", {"session": created["session"]})
        assert status["spec_digest"] == digest


class TestSessionLifecycle:
    def test_deploy_advance_receipt_call_roundtrip(self, service):
        created = service.dispatch("session.create", dict(SMALL_SPEC))
        session = created["session"]
        assert created["seed"] == derive_session_seed(
            build_session_spec(dict(SMALL_SPEC))
        )

        service.dispatch("session.advance", {"session": session, "blocks": 2})
        deployed = service.dispatch(
            "contract.deploy",
            {"session": session, "account": "alice", "code": "SimpleStorage"},
        )
        address = deployed["contract_address"]
        data = "0x" + SET_VALUE_ABI.encode_call(42).hex()
        service.dispatch(
            "tx.submit",
            {"session": session, "account": "alice", "to": address, "data": data},
        )
        # Advance block by block until both transactions commit (inclusion
        # depends on gossip latency and the jittered block schedule).
        receipt = {"committed": False}
        for _ in range(8):
            service.dispatch("session.advance", {"session": session, "blocks": 1})
            receipt = service.dispatch(
                "tx.receipt",
                {"session": session, "transaction_hash": deployed["transaction_hash"]},
            )
            if receipt["committed"]:
                break
        assert receipt["committed"] and receipt["success"]

        got = service.dispatch(
            "contract.call",
            {
                "session": session,
                "contract": address,
                "function": "get_value",
                "allow_raa": False,
            },
        )
        assert got["values"] == [42]

        balance = service.dispatch("state.balance", {"session": session, "account": "alice"})
        assert balance["balance"] > 0

        status = service.dispatch("session.status", {"session": session})
        assert status["height"] >= 4 and status["state"] == "open"

        service.dispatch("session.close", {"session": session})
        with pytest.raises(SessionNotFoundError):
            service.dispatch("session.status", {"session": session})

    def test_replayed_create_requests_rebuild_identical_sessions(self, service):
        first = service.dispatch("session.create", dict(SMALL_SPEC))
        second = service.dispatch("session.create", dict(SMALL_SPEC))
        # Same spec: same seed and digest; ordinals disambiguate the ids.
        assert first["seed"] == second["seed"]
        assert first["spec_digest"] == second["spec_digest"]
        assert first["session"].endswith("-0") and second["session"].endswith("-1")
        assert first["spec"] == second["spec"]

    def test_run_summary_and_metrics(self, service):
        session = service.dispatch("session.create", dict(SMALL_SPEC))["session"]
        summary = service.dispatch("session.run", {"session": session})
        assert "efficiency" in summary
        # run is idempotent: the cached summary comes back unchanged.
        assert service.dispatch("session.run", {"session": session}) == summary
        assert service.dispatch("session.summary", {"session": session}) == summary
        report = service.dispatch("session.metrics", {"session": session})
        assert "buy" in report["labels"]

    def test_summary_before_run_is_invalid(self, service):
        session = service.dispatch("session.create", dict(SMALL_SPEC))["session"]
        with pytest.raises(InvalidParamsError):
            service.dispatch("session.summary", {"session": session})

    def test_hms_status_reports_watched_contract(self, service):
        session = service.dispatch("session.create", dict(SMALL_SPEC))["session"]
        service.dispatch("session.advance", {"session": session, "blocks": 3})
        status = service.dispatch("hms.status", {"session": session})
        assert status["watched"] and status["watched"][0]["installed"]

    def test_max_sessions_enforced(self):
        service = SimulatorService(
            ServiceConfig(idle_timeout=None, retention_default=None, max_sessions=1)
        )
        try:
            service.dispatch("session.create", dict(SMALL_SPEC))
            with pytest.raises(TooManySessionsError):
                service.dispatch("session.create", dict(SMALL_SPEC))
        finally:
            service.close()


class TestErrors:
    def test_unknown_method(self, service):
        with pytest.raises(MethodNotFoundError):
            service.dispatch("no.such.method", {})

    def test_unknown_session(self, service):
        with pytest.raises(SessionNotFoundError):
            service.dispatch("session.status", {"session": "nope"})

    def test_missing_session_parameter(self, service):
        with pytest.raises(InvalidParamsError):
            service.dispatch("session.status", {})

    def test_unknown_rpc_parameter(self, service):
        session = service.dispatch("session.create", dict(SMALL_SPEC))["session"]
        with pytest.raises(InvalidParamsError):
            service.dispatch("session.status", {"session": session, "bogus": 1})

    def test_engine_errors_become_typed(self, service):
        session = service.dispatch("session.create", dict(SMALL_SPEC))["session"]
        service.dispatch("session.advance", {"session": session, "blocks": 1})
        with pytest.raises(ServiceError):
            service.dispatch(
                "contract.call",
                {
                    "session": session,
                    "contract": "0x" + "00" * 20,
                    "function": "nope",
                },
            )
        # The session survives the failed call.
        assert service.dispatch("session.status", {"session": session})["state"] == "open"

    def test_every_error_kind_round_trips(self):
        from repro.service.errors import _KIND_TO_CLASS, error_from_kind

        for kind, cls in _KIND_TO_CLASS.items():
            error = error_from_kind(kind, "message")
            assert isinstance(error, cls)
            wire = cls("message").to_rpc_error()
            assert wire["data"]["kind"] == kind


ANY_ADDRESS = "0x" + "00" * 20
MARKET = to_hex(sereth_exchange_address())

HOSTILE_NUMBERS = [
    pytest.param("state.storage", {"contract": ANY_ADDRESS, "slot": "abc"}, id="slot-string"),
    pytest.param("state.storage", {"contract": ANY_ADDRESS, "slot": -1}, id="slot-negative"),
    pytest.param("state.storage", {"contract": ANY_ADDRESS, "slot": 2**300}, id="slot-2**300"),
    pytest.param("state.storage", {"contract": ANY_ADDRESS, "slot": 1.5}, id="slot-fraction"),
    pytest.param("state.storage", {"contract": ANY_ADDRESS, "slot": True}, id="slot-bool"),
    pytest.param("state.storage", {"contract": ANY_ADDRESS}, id="slot-missing"),
    pytest.param("session.advance", {"seconds": "abc"}, id="seconds-string"),
    pytest.param("session.advance", {"blocks": "x"}, id="blocks-string"),
    pytest.param("session.advance", {"seconds": "inf"}, id="seconds-inf-string"),
    pytest.param("session.advance", json.loads('{"seconds": Infinity}'), id="seconds-Infinity"),
    pytest.param("session.advance", json.loads('{"to": NaN}'), id="to-NaN"),
    pytest.param(
        "contract.deploy",
        {"account": "alice", "code": "SimpleStorage", "value": "x"},
        id="deploy-value-string",
    ),
    pytest.param(
        "tx.submit", {"account": "alice", "to": ANY_ADDRESS, "value": "x"}, id="submit-value-string"
    ),
    pytest.param(
        "tx.submit",
        {"account": "alice", "to": ANY_ADDRESS, "gas_limit": "x"},
        id="submit-gas-limit-string",
    ),
    pytest.param("contract.call", {"contract": ANY_ADDRESS, "function": "current", "peer": [1]}, id="call-peer-array"),
    pytest.param("contract.call", {"contract": ANY_ADDRESS, "function": "current", "account": 7}, id="call-account-number"),
    pytest.param("tx.receipt", {"transaction_hash": 5}, id="receipt-hash-number"),
    pytest.param("tx.receipt", {"transaction_hash": "0xzz"}, id="receipt-hash-not-hex"),
    pytest.param("tx.submit", {"account": "alice", "to": ANY_ADDRESS, "data": 5}, id="submit-data-number"),
    pytest.param("contract.deploy", {"account": "alice", "code": 5}, id="deploy-code-number"),
    pytest.param(
        "contract.call",
        {"contract": MARKET, "function": "current", "allow_raa": "false"},
        id="call-allow-raa-string",
    ),
    pytest.param("session.create", {"experiment": "figure2", "smoke": "false"}, id="create-smoke-string"),
    pytest.param(
        "session.create",
        json.loads('{"faults": [{"name": "drop", "params": {"rate": 0.5, "until": NaN}}]}'),
        id="create-fault-until-NaN",
    ),
    pytest.param(
        "session.create",
        json.loads('{"faults": [{"name": "delay", "params": {"rate": 0.5, "extra": Infinity}}]}'),
        id="create-fault-extra-Infinity",
    ),
    pytest.param("session.advance", {"blocks": 10**12}, id="blocks-10**12"),
    pytest.param("session.advance", {"blocks": 2**2000}, id="blocks-2**2000"),
    pytest.param("session.advance", {"seconds": 1e300}, id="seconds-1e300"),
    pytest.param("session.advance", {"seconds": 2**2000}, id="seconds-2**2000"),
    pytest.param("session.advance", {"blocks": -1}, id="blocks-negative"),
    pytest.param("session.advance", {"seconds": -1.0}, id="seconds-negative"),
    pytest.param("session.advance", {"seconds": 13.0, "blocks": 1}, id="seconds-and-blocks"),
] + [
    pytest.param("session.create", {"workload": workload, "params": params}, id=f"create-{case}")
    for workload, params, case in HOSTILE_WORKLOAD_PARAMS
]


def dispatch_within(service, method, params, seconds=1.0):
    """What ``service.dispatch`` raised (or returned) on a worker thread;
    fails if it is still running after ``seconds`` (closing the service then
    interrupts it)."""
    outcome = {}

    def work():
        try:
            outcome["result"] = service.dispatch(method, params)
        except Exception as error:  # noqa: BLE001 - the outcome is the assertion
            outcome["error"] = error

    worker = threading.Thread(target=work, daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), f"{method} {params} still running after {seconds} s"
    return outcome


class TestNumericArguments:
    @pytest.mark.parametrize("method, params", HOSTILE_NUMBERS)
    def test_hostile_number_is_invalid_params_within_a_second(self, service, method, params):
        session = service.dispatch("session.create", dict(SMALL_SPEC))["session"]
        if method != "session.create":
            params = dict(params, session=session)
        outcome = dispatch_within(service, method, params)
        assert isinstance(outcome.get("error"), InvalidParamsError), outcome
        # The refused request left the session usable.
        assert service.dispatch("session.status", {"session": session})["state"] == "open"

    def test_whole_floats_are_integers(self, service):
        session = service.dispatch("session.create", dict(SMALL_SPEC))["session"]
        status = service.dispatch("session.advance", {"session": session, "blocks": 2.0})
        assert status["height"] >= 1
        word = service.dispatch(
            "state.storage", {"session": session, "contract": ANY_ADDRESS, "slot": 1.0}
        )
        assert word["slot"] == 1 and word["value"] == "0x" + "00" * 32


class TestEvictionAndObservability:
    def test_idle_sessions_evicted(self):
        clock = [0.0]
        service = SimulatorService(ServiceConfig(idle_timeout=None, retention_default=None))
        try:
            # Substitute a manual clock on the session so idleness is exact.
            session_id = service.dispatch("session.create", dict(SMALL_SPEC))["session"]
            session = service._sessions[session_id]
            session._clock = lambda: clock[0]
            session.last_used = 0.0
            service.config.idle_timeout = 10.0
            clock[0] = 5.0
            assert service.evict_idle_sessions() == []
            clock[0] = 11.0
            assert service.evict_idle_sessions() == [session_id]
            assert service.stats.sessions_evicted == 1
            with pytest.raises(SessionNotFoundError):
                service.dispatch("session.status", {"session": session_id})
        finally:
            service.config.idle_timeout = None
            service.close()

    def test_service_probe_and_trace_events(self, service):
        from repro.obs import snapshot

        session = service.dispatch("session.create", dict(SMALL_SPEC))["session"]
        service.dispatch("session.status", {"session": session})
        with pytest.raises(MethodNotFoundError):
            service.dispatch("bogus", {})
        probes = snapshot()
        assert probes["service"]["requests"] >= 3
        assert probes["service"]["errors"] >= 1
        counts = service.tracer.event_counts()
        assert counts.get("session.create", 0) >= 1
        assert counts.get("rpc.request", 0) >= 1
        assert counts.get("rpc.error", 0) >= 1

    def test_registry_list_and_probes_methods(self, service):
        catalog = service.dispatch("registry.list", {})
        assert {"scenarios", "workloads", "adversaries", "topologies", "experiments", "probes"} <= set(catalog)
        assert all(entry["description"] for entries in catalog.values() for entry in entries)
        probes = service.dispatch("obs.probes", {})
        assert "service" in probes["probes"]

    def test_close_is_idempotent(self):
        service = SimulatorService(ServiceConfig(idle_timeout=None))
        service.dispatch("session.create", dict(SMALL_SPEC))
        service.close()
        service.close()
        assert service.closed.is_set()
