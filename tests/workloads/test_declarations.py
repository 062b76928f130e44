"""Each workload's wiring is declared once and derived by the base.

The parity table was recorded from the hand-written hooks the declarations
replaced: for every registered workload under each paper scenario, the HMS
targets, the semantic-mining config, the adversary target, the funded
accounts, the genesis state root (the golden store's ``genesis_roots``
entry), the primary label and each miner's ordering policy.  The
hostile-parameter table lists inputs the hand-written checks let through to
fail mid-run (or to run as something else); each is now refused when the
spec is built.
"""

import json
from typing import NamedTuple, Optional, Tuple

import pytest

from repro.api import BuildError, Simulation, WORKLOAD_REGISTRY, build_simulation
from repro.golden import assert_holds, stored

SCENARIOS = ("geth_unmodified", "sereth_client", "semantic_mining")


class Wiring(NamedTuple):
    contract: str
    set_selector: str
    buy_selectors: Optional[Tuple[str, ...]]
    primary_label: Optional[str]
    accounts: Tuple[str, ...]
    semantic_miner: str
    """The policy every miner runs under ``semantic_mining`` (the other two
    scenarios always run ``ArrivalJitterPolicy``)."""


SERETH = "9c5a1045f74e38b5463f2eecda65db3ed4b5ad8d"
SERETH_SET, SERETH_BUY = "d1602737", ("3f91e238",)

PARITY = {
    "auction": Wiring(
        contract="7be2a3280dbcfd4aeb2956c80e769d124ab68ca5",
        set_selector="5ec65d63",
        buy_selectors=(),
        primary_label="bid",
        accounts=("seller", "bidder-0", "bidder-1", "bidder-2", "bidder-3"),
        semantic_miner="SemanticMiningPolicy",
    ),
    "frontrunning": Wiring(
        contract=SERETH,
        set_selector=SERETH_SET,
        buy_selectors=SERETH_BUY,
        primary_label="victim-buy",
        accounts=("market-owner", "victim", "frontrunner"),
        semantic_miner="SemanticMiningPolicy",
    ),
    "market": Wiring(
        contract=SERETH,
        set_selector=SERETH_SET,
        buy_selectors=SERETH_BUY,
        primary_label="buy",
        accounts=("owner", "buyer-0", "buyer-1", "buyer-2", "buyer-3"),
        semantic_miner="SemanticMiningPolicy",
    ),
    "oracle": Wiring(
        contract=SERETH,
        set_selector=SERETH_SET,
        buy_selectors=SERETH_BUY,
        primary_label=None,
        accounts=("oracle-owner", "oracle-consumer", "oracle-operator"),
        semantic_miner="SemanticMiningPolicy",
    ),
    # HMS installed, but no semantic-mining config: its semantic miners keep
    # arrival-jitter order.
    "sequential": Wiring(
        contract=SERETH,
        set_selector=SERETH_SET,
        buy_selectors=None,
        primary_label=None,
        accounts=("solo-trader",),
        semantic_miner="ArrivalJitterPolicy",
    ),
    "steady_state": Wiring(
        contract=SERETH,
        set_selector=SERETH_SET,
        buy_selectors=SERETH_BUY,
        primary_label="steady",
        accounts=("owner",),
        semantic_miner="SemanticMiningPolicy",
    ),
    "ticket_sale": Wiring(
        contract="d224fedac1e709d390d46b809c30e22bee6b5039",
        set_selector="10a46d95",
        buy_selectors=("0767f871",),
        primary_label="ticket",
        accounts=("organiser", "fan-0", "fan-1", "fan-2", "fan-3", "fan-4", "fan-5"),
        semantic_miner="SemanticMiningPolicy",
    ),
    "victim_market": Wiring(
        contract=SERETH,
        set_selector=SERETH_SET,
        buy_selectors=SERETH_BUY,
        primary_label="victim-buy",
        accounts=("market-owner", "victim"),
        semantic_miner="SemanticMiningPolicy",
    ),
}

HOSTILE_WORKLOAD_PARAMS = [
    ("market", {"num_buys": 2.5}, "market-num_buys-fraction"),
    ("market", {"price_max_step": 0}, "market-price_max_step-zero"),
    ("market", {"num_buyers": 2.5}, "market-num_buyers-fraction"),
    ("auction", json.loads('{"bid_interval": NaN}'), "auction-bid_interval-NaN"),
    ("ticket_sale", {"num_buyers": 1.5}, "ticket_sale-num_buyers-fraction"),
    ("steady_state", {"blocks_per_set": 0.5}, "steady_state-blocks_per_set-fraction"),
    ("oracle", {"num_queries": 2.5}, "oracle-num_queries-fraction"),
    ("victim_market", json.loads('{"reprice_interval": NaN}'), "victim_market-reprice_interval-NaN"),
    ("sequential", {"num_pairs": True}, "sequential-num_pairs-bool"),
]
"""``(workload, params, id)`` — inputs refused at build time."""


def test_the_table_covers_every_registered_workload():
    assert sorted(PARITY) == WORKLOAD_REGISTRY.names()


def test_genesis_roots_are_pinned():
    assert sorted(stored("genesis_roots")) == sorted(PARITY)
    assert_holds("genesis_roots")


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("name", sorted(PARITY))
def test_derived_wiring_matches_the_recorded_hooks(name, scenario):
    expected = PARITY[name]
    spec = Simulation.builder().scenario(scenario).workload(name).miners(2).seed(5).build()
    handle = build_simulation(spec)
    workload = handle.workload

    assert [(contract.hex(), selector.hex()) for contract, selector in workload.hms_targets()] == [
        (expected.contract, expected.set_selector)
    ]
    semantic = workload.semantic_config()
    if expected.buy_selectors is None:
        assert semantic is None
    else:
        assert semantic.hms.contract_address.hex() == expected.contract
        assert semantic.hms.set_selector.hex() == expected.set_selector
        assert tuple(selector.hex() for selector in semantic.buy_selectors) == expected.buy_selectors
    target = workload.adversary_target()
    assert target.contract_address.hex() == expected.contract
    assert target.set_selector.hex() == expected.set_selector
    assert tuple(selector.hex() for selector in target.buy_selectors) == (
        expected.buy_selectors or ()
    )
    assert tuple(workload.account_labels()) == expected.accounts
    assert handle.reference_chain.block_by_number(0).header.state_root.hex() == stored("genesis_roots")[name]
    assert workload.primary_label == expected.primary_label
    policy = expected.semantic_miner if scenario == "semantic_mining" else "ArrivalJitterPolicy"
    assert [type(miner.miner.policy).__name__ for miner in handle.production.miners()] == [
        policy,
        policy,
    ]


@pytest.mark.parametrize(
    "name, params",
    [pytest.param(name, params, id=case) for name, params, case in HOSTILE_WORKLOAD_PARAMS],
)
def test_hostile_parameters_are_refused_at_build_time(name, params):
    with pytest.raises(BuildError, match=f"invalid parameters for workload {name!r}"):
        Simulation.builder().scenario("semantic_mining").workload(name, **params).build()


def test_whole_floats_are_counts():
    builder = Simulation.builder().scenario("semantic_mining")
    spec = builder.workload("market", num_buys=3.0, num_buyers=2.0).build()
    workload = build_simulation(spec).workload
    assert (workload.num_buys, workload.num_buyers) == (3, 2)
    assert isinstance(workload.num_buys, int)


def test_unknown_parameters_are_refused():
    with pytest.raises(BuildError, match="num_bids"):
        Simulation.builder().scenario("semantic_mining").workload("auction", num_bids=3).build()
