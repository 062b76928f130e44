"""The spec's field declarations: describe() oracle, path equivalence, bugs.

``SimulationSpec`` declares each knob once (``repro.api.spec.knob``), and
construction, ``describe()``, the builder, ``apply_dimension`` and the
served ``session.create`` all derive from that declaration.  These tests pin
that the derivation changed no bytes (the hand-written ``describe()`` it
replaced is kept below as the oracle) and that every path that builds a spec
builds the same one.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import ExperimentOptions, Simulation, SimulationSpec, spec_digest
from repro.api.experiment import plan_experiment
from repro.api.spec import MINER_POLICIES, freeze_adversaries
from repro.api.sweep import apply_dimension
from repro.service.errors import InvalidParamsError
from repro.service.session import SESSION_REFUSALS, WIRE_ALIASES, build_session_spec


def oracle_describe(spec: SimulationSpec) -> dict:
    """``SimulationSpec.describe()`` as it was written by hand, verbatim."""
    description = {
        "scenario": spec.scenario.name,
        "workload": spec.workload,
        "workload_params": {key: value for key, value in spec.workload_params},
        "adversaries": [
            {"name": name, "params": {key: value for key, value in params}}
            for name, params in spec.adversaries
        ],
        "num_miners": spec.num_miners,
        "num_client_peers": spec.num_client_peers,
        "block_interval": spec.block_interval,
        "fixed_block_interval": spec.fixed_block_interval,
        "gossip_latency": spec.gossip_latency,
        "gossip_jitter": spec.gossip_jitter,
        "transaction_loss_rate": spec.transaction_loss_rate,
        "miner_order_jitter": spec.miner_order_jitter,
        "miner_policy": spec.miner_policy,
        "client_kind_overrides": {
            peer_id: kind for peer_id, kind in spec.client_kind_overrides
        },
        "block_gas_limit": spec.block_gas_limit,
        "max_transactions_per_block": spec.max_transactions_per_block,
        "transaction_gas_limit": spec.transaction_gas_limit,
        "seed": spec.seed,
        "settle_blocks": spec.settle_blocks,
        "max_duration": spec.max_duration,
    }
    if spec.topology is not None:
        name, params = spec.topology
        description["topology"] = {"name": name, "params": dict(params)}
    if spec.bandwidth is not None:
        description["bandwidth"] = dict(spec.bandwidth)
    if spec.churn:
        description["churn"] = [list(event) for event in spec.churn]
    if spec.faults:
        description["faults"] = [
            {"name": name, "params": {key: value for key, value in params}}
            for name, params in spec.faults
        ]
    if spec.retention is not None:
        description["retention"] = spec.retention
    if spec.metrics_window is not None:
        description["metrics_window"] = spec.metrics_window
    if spec.extra_accounts:
        description["extra_accounts"] = list(spec.extra_accounts)
    if spec.observe:
        description["observe"] = True
    return description


def oracle_digest(spec: SimulationSpec) -> str:
    payload = json.dumps(oracle_describe(spec), sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


ELIDED = {
    "topology": ("random_k", {"k": 3}),
    "bandwidth": {"bytes_per_second": 5e5, "per_link": [["miner-0", "client-0", 1e4]]},
    "churn": [["leave", 40.0, "client-1"], ["join", 90.0, "client-1"]],
    "faults": [("drop", {"rate": 0.1, "target": "block"})],
    "retention": 32,
    "metrics_window": 60.0,
    "extra_accounts": ("alice", "bob"),
    "observe": True,
}
"""A set (non-default) value for every field ``describe()`` elides at its default."""

PEERS = st.sampled_from(["miner-0", "client-0", "client-1", "client-2"])
PARAM_VALUES = st.one_of(
    st.integers(-5, 500), st.floats(0.0, 50.0), st.lists(st.integers(0, 9), max_size=3)
)
PARAMS = st.dictionaries(st.sampled_from(["num_buys", "buys_per_set", "rate", "k"]), PARAM_VALUES)


def optional(strategy):
    return st.one_of(st.none(), strategy)


FIELD_VALUES = {
    "scenario": st.sampled_from(["geth_unmodified", "sereth_client", "semantic_mining"]),
    "workload": st.sampled_from(["market", "ticket_sale", "auction"]),
    "workload_params": PARAMS,
    "adversaries": st.lists(
        st.one_of(
            st.sampled_from(["displacement", "suppression", "insertion"]),
            st.tuples(st.sampled_from(["displacement", "censoring_miner"]), PARAMS),
        ),
        max_size=3,
    ),
    "num_miners": st.integers(1, 8),
    "num_client_peers": st.integers(1, 8),
    "block_interval": st.one_of(st.integers(1, 60), st.floats(0.5, 60.0)),
    "fixed_block_interval": st.booleans(),
    "gossip_latency": st.floats(0.0, 2.0),
    "gossip_jitter": st.floats(0.0, 2.0),
    "transaction_loss_rate": st.floats(0.0, 0.99),
    "miner_order_jitter": st.floats(0.0, 10.0),
    "miner_policy": optional(st.sampled_from(MINER_POLICIES)),
    "client_kind_overrides": st.dictionaries(PEERS, st.sampled_from(["geth", "sereth"])),
    "block_gas_limit": st.integers(1, 10**8),
    "max_transactions_per_block": optional(st.integers(1, 500)),
    "transaction_gas_limit": st.integers(1, 10**6),
    "seed": st.integers(0, 2**63),
    "settle_blocks": st.integers(0, 20),
    "max_duration": optional(st.floats(1.0, 1000.0)),
    "topology": optional(
        st.sampled_from(
            [
                "full_mesh",
                "kademlia",
                ("random_k", {"k": 3}),
                {"name": "region_hub", "params": {"regions": 2}},
            ]
        )
    ),
    "bandwidth": optional(st.one_of(st.floats(1e3, 1e7), st.just(ELIDED["bandwidth"]))),
    "churn": st.lists(
        st.sampled_from(
            [
                ("leave", 10.0, "client-1"),
                ("join", 20.0, "client-1"),
                ("heal", 30.0),
                ("partition", 5.0, [["miner-0"], ["client-0", "client-1"]]),
            ]
        ),
        max_size=3,
    ),
    "faults": st.lists(
        st.sampled_from(
            [
                ("drop", {"rate": 0.2}),
                {"name": "delay", "params": {"rate": 0.1, "target": "tx"}},
                ("crash", {"peer": "client-1", "at": 20.0}),
            ]
        ),
        max_size=2,
    ),
    "retention": optional(st.integers(30, 200)),
    "metrics_window": optional(st.floats(1.0, 500.0)),
    "extra_accounts": st.lists(st.sampled_from(["alice", "bob", "carol"]), max_size=3),
    "observe": st.booleans(),
    "trace_dir": optional(st.just("traces")),
}


def test_the_generator_touches_every_field():
    assert set(FIELD_VALUES) == {spec_field.name for spec_field in fields(SimulationSpec)}
    assert set(ELIDED) < set(FIELD_VALUES)


@st.composite
def specs(draw):
    """Specs built from a random subset of fields, each drawn in any of the
    input shapes its canonicaliser accepts; absent fields keep defaults."""
    chosen = draw(st.sets(st.sampled_from(sorted(FIELD_VALUES))))
    kwargs = {"scenario": "semantic_mining", "workload": "market"}
    kwargs.update({name: draw(FIELD_VALUES[name]) for name in sorted(chosen)})
    return SimulationSpec(**kwargs)


class TestDescribeOracle:
    @settings(max_examples=300, deadline=None)
    @given(specs())
    def test_describe_renders_the_oracle_bytes(self, spec):
        assert json.dumps(spec.describe()) == json.dumps(oracle_describe(spec))
        assert spec_digest(spec) == oracle_digest(spec)

    @pytest.mark.parametrize("name", sorted(ELIDED))
    def test_elided_fields_at_default_and_set(self, name):
        default = SimulationSpec(scenario="semantic_mining", workload="market")
        assert name not in default.describe()
        assert default.describe() == oracle_describe(default)
        spec = replace(default, **{name: ELIDED[name]})
        assert name in spec.describe()
        assert json.dumps(spec.describe()) == json.dumps(oracle_describe(spec))
        assert spec_digest(spec) == oracle_digest(spec)

    def test_trace_dir_never_renders_and_implies_observe(self):
        spec = SimulationSpec(scenario="semantic_mining", workload="market", trace_dir="traces")
        assert spec.observe and "trace_dir" not in spec.describe()

    def test_canonical_forms_are_idempotent(self):
        spec = SimulationSpec(scenario="semantic_mining", workload="market", **ELIDED)
        assert replace(spec) == spec and hash(replace(spec)) == hash(spec)


# -- every path that builds a spec builds the same one -----------------------------------

SESSION_SEED = 11
SERVED = {
    "scenario": ("geth_unmodified", lambda b: b.scenario("geth_unmodified")),
    "workload": ("ticket_sale", lambda b: b.workload("ticket_sale")),
    "workload_params": ({"num_buys": 5}, lambda b: b.workload("market", num_buys=5)),
    "adversaries": (
        [{"name": "displacement", "params": {"markup": 30}}],
        lambda b: b.adversary("displacement", markup=30),
    ),
    "num_miners": (3, lambda b: b.miners(3)),
    "num_client_peers": (4, lambda b: b.clients(4)),
    "block_interval": (5, lambda b: b.block_interval(5.0)),
    "fixed_block_interval": (True, lambda b: b.block_interval(13.0, fixed=True)),
    "gossip_latency": (0.2, lambda b: b.gossip(0.2)),
    "gossip_jitter": (0.1, lambda b: b.gossip(0.08, 0.1)),
    "transaction_loss_rate": (0.1, None),
    "miner_order_jitter": (1, lambda b: b.miner_order_jitter(1.0)),
    "miner_policy": ("fifo", lambda b: b.miner_policy("fifo")),
    "client_kind_overrides": ({"client-1": "geth"}, lambda b: b.client_kind("client-1", "geth")),
    "block_gas_limit": (20_000_000, lambda b: b.gas(block_gas_limit=20_000_000)),
    "max_transactions_per_block": (50, lambda b: b.gas(max_transactions_per_block=50)),
    "transaction_gas_limit": (300_000, lambda b: b.gas(transaction_gas_limit=300_000)),
    "seed": (7, lambda b: b.seed(7)),
    "settle_blocks": (3, None),
    "max_duration": (120, None),
    "topology": ({"name": "random_k", "params": {"k": 3}}, lambda b: b.topology("random_k", k=3)),
    "bandwidth": (500000, lambda b: b.bandwidth(500000.0)),
    "churn": (
        [["leave", 40.0, "client-1"], ["join", 90.0, "client-1"]],
        lambda b: b.churn(("leave", 40.0, "client-1"), ("join", 90.0, "client-1")),
    ),
    "faults": (
        [{"name": "drop", "params": {"rate": 0.1}}],
        lambda b: b.fault("drop", rate=0.1),
    ),
    "retention": (32, lambda b: b.retention(32)),
    "metrics_window": (60, lambda b: b.metrics_window(60.0)),
    "extra_accounts": (["alice"], None),
    "observe": (True, lambda b: b.observe()),
}
"""Per served field: a JSON wire value and the builder call that sets it
(``None``: the field has no builder setter, only ``--set``/``--over`` and
``session.create``)."""


def base_builder():
    return Simulation.builder().scenario("semantic_mining").workload("market").seed(SESSION_SEED)


class TestPathEquivalence:
    def test_every_served_field_has_a_row(self):
        served = {name for name, refused in SESSION_REFUSALS.items() if refused is None}
        assert set(SERVED) == served

    @pytest.mark.parametrize("name", sorted(SERVED))
    def test_builder_session_and_dimension_agree(self, name):
        value, set_with_builder = SERVED[name]
        wire = json.loads(json.dumps(value))
        served = build_session_spec({"seed": SESSION_SEED, name: wire})
        dimension = apply_dimension(base_builder().build(), name, wire)
        built = dimension if set_with_builder is None else set_with_builder(base_builder()).build()
        assert built.describe() == served.describe() == dimension.describe()
        assert built == served == dimension

    @pytest.mark.parametrize("alias", sorted(WIRE_ALIASES))
    def test_wire_aliases_name_their_fields(self, alias):
        value = SERVED[WIRE_ALIASES[alias]][0]
        by_alias = build_session_spec({"seed": SESSION_SEED, alias: value})
        by_name = build_session_spec({"seed": SESSION_SEED, WIRE_ALIASES[alias]: value})
        assert by_alias == by_name

    def test_unknown_field_error_lists_what_the_metadata_accepts(self):
        with pytest.raises(InvalidParamsError) as excinfo:
            build_session_spec({"bogus": 1})
        message = str(excinfo.value)
        known = message.split("known: ", 1)[1]
        for name in list(SERVED) + list(WIRE_ALIASES):
            assert repr(name) in known
        for name, refused in SESSION_REFUSALS.items():
            if refused is not None:
                assert repr(name) not in known

    @pytest.mark.parametrize("name", ["trace_dir"])
    def test_refused_fields_say_why(self, name):
        assert SESSION_REFUSALS[name]
        with pytest.raises(InvalidParamsError, match=f"'{name}' is not a session field"):
            build_session_spec({name: "x"})


# -- coercion bugs the single declaration fixed ------------------------------------------


class TestCanonicalisation:
    def base(self) -> SimulationSpec:
        return base_builder().build()

    def test_a_bare_name_is_one_entry_not_its_characters(self):
        assert freeze_adversaries("displacement") == (("displacement", ()),)
        assert replace(self.base(), adversaries="suppression").adversaries == (("suppression", ()),)
        assert replace(self.base(), extra_accounts="alice").extra_accounts == ("alice",)

    def test_set_faults_to_a_bare_name_is_one_fault_at_plan_time(self):
        # "drop" needs a rate: the one fault named "drop" fails at plan time,
        # instead of four faults named d/r/o/p failing inside the engine.
        options = ExperimentOptions(smoke=True, overrides={"faults": "drop"})
        with pytest.raises(ValueError, match="invalid parameters for fault 'drop'"):
            plan_experiment("figure2", options)

    def test_bool_fields_reject_non_bools(self):
        for value in ("false", "true", 0, 1, None):
            with pytest.raises(ValueError, match="fixed_block_interval"):
                replace(self.base(), fixed_block_interval=value)
        with pytest.raises(ValueError, match="observe"):
            replace(self.base(), observe="false")

    def test_numbers_are_coerced_and_checked(self):
        spec = replace(self.base(), block_interval=5, num_miners=2.0)
        assert spec.block_interval == 5.0 and isinstance(spec.block_interval, float)
        assert spec.num_miners == 2 and isinstance(spec.num_miners, int)
        bad = (("num_miners", 2.5), ("num_miners", "2"), ("block_interval", "5"), ("seed", True))
        for name, value in bad:
            with pytest.raises(ValueError, match=name):
                replace(self.base(), **{name: value})

    def test_topology_parameters_are_checked_at_construction(self):
        with pytest.raises(ValueError, match="k >= 2"):
            replace(self.base(), topology=("random_k", {"k": 1}))
        with pytest.raises(InvalidParamsError, match="k >= 2"):
            build_session_spec({"topology": {"name": "random_k", "params": {"k": 1}}})

    def test_scenario_names_resolve(self):
        spec = replace(self.base(), scenario="geth_unmodified")
        assert spec.scenario_name == "geth_unmodified"
        with pytest.raises(ValueError, match="unknown scenario"):
            replace(self.base(), scenario="warp_drive")
