"""Genesis template caching: one build per distinct config per process."""

import pytest

from repro.api import reset_process_caches
from repro.chain.chain import Blockchain
from repro.chain.genesis import (
    GenesisConfig,
    build_genesis,
    build_genesis_cached,
    genesis_digest,
)
from repro.crypto.addresses import address_from_label

from ..oracles import ValueTransferExecutor

ALICE = address_from_label("alice")


@pytest.fixture(autouse=True)
def fresh_cache():
    reset_process_caches()
    yield
    reset_process_caches()


def config() -> GenesisConfig:
    return GenesisConfig.for_labels(["alice", "bob"], balance=10**18)


class TestDigest:
    def test_equal_content_equal_digest(self):
        assert genesis_digest(config()) == genesis_digest(config())

    def test_any_field_changes_the_digest(self):
        base = genesis_digest(config())
        richer = config().fund(ALICE, 1)
        assert genesis_digest(richer) != base
        slower = config()
        slower.gas_limit += 1
        assert genesis_digest(slower) != base
        contractful = config().deploy_contract(ALICE, "Sereth")
        assert genesis_digest(contractful) != base


class TestTemplateCache:
    def test_same_config_returns_shared_template(self):
        first = build_genesis_cached(config())
        second = build_genesis_cached(config())
        assert first[0] is second[0] and first[1] is second[1]

    def test_template_matches_uncached_build(self):
        cached_block, cached_state = build_genesis_cached(config())
        fresh_block, fresh_state = build_genesis(config())
        assert cached_block.hash == fresh_block.hash
        assert cached_state.state_root() == fresh_state.state_root()

    def test_mutated_config_lands_on_new_entry(self):
        shared = config()
        first_block, _ = build_genesis_cached(shared)
        shared.fund(ALICE, 7)  # content changed -> different digest
        second_block, _ = build_genesis_cached(shared)
        assert second_block.hash != first_block.hash

    def test_chains_never_corrupt_the_template(self):
        shared = config()
        chain = Blockchain(ValueTransferExecutor(), shared)
        chain.state.set_balance(ALICE, 1)  # mutate the chain's private fork
        _, template = build_genesis_cached(shared)
        assert template.get_balance(ALICE) == 10**18
        other = Blockchain(ValueTransferExecutor(), shared)
        assert other.state.get_balance(ALICE) == 10**18

    def test_clear_hook_forces_rebuild(self):
        first = build_genesis_cached(config())
        reset_process_caches()
        second = build_genesis_cached(config())
        assert first[1] is not second[1]
        assert first[0].hash == second[0].hash
