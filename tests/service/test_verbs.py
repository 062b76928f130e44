"""The verb table is the service's one declaration of its RPC surface.

Pins what the table derives (the method names and the control / idempotent
/ journaled sets, each equal to the hand-kept literal it replaced), checks
that every declared handler takes exactly the declared parameters, and
holds the declarations to what dispatch does with arbitrary params objects.
"""

from __future__ import annotations

import inspect
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service.errors import ExecutionError, InvalidParamsError, ServiceError
from repro.service.server import ServiceConfig, SimulatorService
from repro.service.session import SESSION_REFUSALS, WIRE_ALIASES, ServiceSession, build_session_spec
from repro.service.verbs import VERBS

from .test_session import MARKET, SMALL_SPEC, dispatch_within

CONTROL = {"service.ping", "service.status", "service.shutdown", "registry.list", "obs.probes"}
IDEMPOTENT = {
    "service.ping",
    "service.status",
    "registry.list",
    "obs.probes",
    "session.list",
    "session.describe",
    "session.status",
    "session.summary",
    "session.metrics",
    "session.run",
    "tx.receipt",
    "state.balance",
    "state.storage",
    "hms.status",
    "contract.call",
}
JOURNALED = {
    "session.create",
    "session.advance",
    "session.run",
    "session.close",
    "contract.deploy",
    "tx.submit",
}
ALL = CONTROL | IDEMPOTENT | JOURNALED | {"service.shutdown"}


def test_derived_sets_match_the_literals_they_replaced():
    assert len(ALL) == 21 and set(VERBS) == ALL
    assert {name for name, verb in VERBS.items() if verb.control} == CONTROL
    assert {name for name, verb in VERBS.items() if verb.idempotent} == IDEMPOTENT
    assert {name for name, verb in VERBS.items() if verb.journaled} == JOURNALED


def test_every_handler_takes_exactly_its_declared_params():
    for verb in VERBS.values():
        owner = ServiceSession if verb.session else SimulatorService
        taken = set(inspect.signature(getattr(owner, verb.handler)).parameters) - {"self"}
        if verb.spec_request:
            declared = {"spec"}
        else:
            declared = set(verb.params) - ({"session"} if verb.session else set())
        assert taken == declared, verb.name


SESSION = "<live session>"
"""Stands for the id of the session the property runs against."""

PLACEHOLDER = ["0x" + "00" * 32] * 3
WELL_FORMED = {
    "session": [SESSION],
    "contract": [MARKET, "alice"],
    "to": [MARKET, 1.0, 30.0],
    "account": ["alice", MARKET],
    "function": ["current", "mark", "nope"],
    "arguments": [[], [PLACEHOLDER], [1, "0x00"]],
    "peer": ["client-0", "miner-0", "nope"],
    "allow_raa": [True, False],
    "code": ["SimpleStorage"],
    "constructor": ["0x"],
    "data": ["0x", "0x00"],
    "value": [0, 1, 2**200],
    "gas_limit": [100_000, 2**200],
    "transaction_hash": ["0x" + "00" * 32],
    "slot": [0, 1, 2**255],
    "seconds": [0.0, 2.0],
    "blocks": [0, 2],
    "experiment": ["figure2"],
    "smoke": [True, False],
    "seed": [1],
    "params": [{"num_buys": 2}, {"num_buys": 10**12}, {"num_buyers": 2**64}],
    "accounts": [["bob"]],
    "clients": [2, 10**7],
    "miners": [1, 2**64],
    "topology": [{"name": "random_k", "params": {"k": 3}}, {"name": "region_hub", "params": {"regions": 10**8}}],
    "retention": [None, 8],
}
"""Values of the right shape per parameter name, so that generated
requests reach the handlers and not only the refusals."""

SMALL = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.sampled_from([0.5, 2.0, -1.0, 1e300, math.nan, math.inf, -math.inf])
    | st.text(max_size=4)
    | st.sampled_from([SESSION, MARKET, "alice", "0x", "0xzz"])
)
HUGE = st.sampled_from([10**12, 2**64, 2**300, -(2**300), 2**2000])


def values(leaves):
    return st.recursive(
        leaves,
        lambda children: st.lists(children, max_size=3)
        | st.dictionaries(st.text(max_size=3), children, max_size=2),
        max_leaves=5,
    )


SPEC_KEYS = sorted(set(SESSION_REFUSALS) | set(WIRE_ALIASES) | {"experiment", "smoke"})


@st.composite
def requests(draw):
    name = draw(st.sampled_from(sorted(VERBS)))
    verb = VERBS[name]
    # Huge numbers for every verb, session.create included: its sizes
    # (peers, buys, topology, churn) stop at their declared served_max.
    leaves = SMALL | HUGE
    if draw(st.integers(0, 9)) == 0:  # not an object
        return name, draw(st.none() | st.lists(values(leaves), max_size=2) | leaves)
    if verb.spec_request:
        keys = draw(st.lists(st.sampled_from(SPEC_KEYS), max_size=2, unique=True))
    else:
        keys = [
            key
            for key in sorted(verb.params)
            if draw(st.integers(0, 9)) < (8 if key in verb.required_params else 3)
        ]
    if draw(st.integers(0, 9)) == 0:
        keys.append("bogus")
    params = {}
    for key in keys:
        well_formed = WELL_FORMED.get(key)
        if well_formed and draw(st.integers(0, 2)):
            params[key] = draw(st.sampled_from(well_formed))
        else:
            params[key] = draw(values(leaves))
    return name, params


def test_every_verb_refuses_before_the_turn_or_answers_typed():
    """A request the declaration refuses is ``invalid_params`` within a
    second even while another thread holds the engine turn; any other
    gets a result or a typed error, never an internal one."""
    service = SimulatorService(ServiceConfig(idle_timeout=None, retention_default=None))
    live = {}

    def live_session() -> ServiceSession:
        session = service._sessions.get(live.get("id", ""))
        if session is None:
            live["id"] = service.dispatch("session.create", dict(SMALL_SPEC))["session"]
            session = service._sessions[live["id"]]
        return session

    def refused(method, params, session):
        verb = VERBS[method]
        try:
            kwargs = verb.arguments(params)
            if verb.spec_request:
                build_session_spec(kwargs["request"])
            elif verb.check is not None and kwargs["session"] == session.session_id:
                verb.check(session, {key: value for key, value in kwargs.items() if key != "session"})
        except InvalidParamsError:
            return True
        return False

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(requests())
    def check(request):
        method, params = request
        session = live_session()
        if isinstance(params, dict):
            params = {key: session.session_id if value == SESSION else value for key, value in params.items()}
        if refused(method, params, session):
            with service.turn:
                outcome = dispatch_within(service, method, params, seconds=1.0)
            assert isinstance(outcome.get("error"), InvalidParamsError), (method, params, outcome)
            return
        outcome = dispatch_within(service, method, params, seconds=10.0)
        error = outcome.get("error")
        if error is None:
            if method == "session.create":
                service.dispatch("session.close", {"session": outcome["result"]["session"]})
            return
        assert isinstance(error, ServiceError), (method, params, error)
        assert not (isinstance(error, ExecutionError) and str(error).startswith("internal error")), (
            method,
            params,
            error,
        )

    try:
        check()
    finally:
        service.close()
