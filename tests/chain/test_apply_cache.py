"""Tests for cross-peer block-application sharing via BlockApplyCache."""

import pytest

from repro.chain.apply_cache import BlockApplyCache
from repro.chain.chain import Blockchain
from repro.chain.errors import ChainError
from repro.chain.genesis import GenesisConfig
from repro.chain.transaction import Transaction
from repro.crypto.addresses import address_from_label

from ..oracles import ValueTransferExecutor

ALICE = address_from_label("alice")
BOB = address_from_label("bob")
MINER = address_from_label("miner")


def genesis() -> GenesisConfig:
    return GenesisConfig.for_labels(["alice", "bob", "miner"], balance=10**18)


def chain_pair(cache: BlockApplyCache):
    config = genesis()
    return (
        Blockchain(ValueTransferExecutor(), config, apply_cache=cache),
        Blockchain(ValueTransferExecutor(), config, apply_cache=cache),
    )


def transfer(nonce: int, value: int = 100) -> Transaction:
    return Transaction(sender=ALICE, nonce=nonce, to=BOB, value=value)


class TestSharedApplication:
    def test_second_peer_imports_from_cache(self):
        cache = BlockApplyCache()
        miner_chain, peer_chain = chain_pair(cache)
        block, _ = miner_chain.build_block([transfer(0)], miner=MINER, timestamp=13.0)
        miner_chain.add_block(block)
        assert cache.hits == 1, "the builder's own import reuses the build outcome"
        peer_chain.add_block(block)
        assert cache.hits == 2, "the validating peer reuses it too"
        assert peer_chain.state.get_balance(BOB) == miner_chain.state.get_balance(BOB)
        assert peer_chain.state.state_root() == miner_chain.state.state_root()
        assert peer_chain.state.state_root() == block.header.state_root

    def test_cached_import_equals_full_validation(self):
        cache = BlockApplyCache()
        miner_chain, cached_peer = chain_pair(cache)
        isolated_peer = Blockchain(ValueTransferExecutor(), genesis())
        for nonce in range(3):
            block, _ = miner_chain.build_block(
                [transfer(nonce)], miner=MINER, timestamp=13.0 * (nonce + 1)
            )
            miner_chain.add_block(block)
            cached_peer.add_block(block)
            isolated_peer.add_block(block)  # full replay, no cache
        assert cached_peer.state.state_root() == isolated_peer.state.state_root()
        assert (
            cached_peer.committed_transaction_hashes()
            == isolated_peer.committed_transaction_hashes()
        )

    def test_build_block_returns_a_private_state_not_the_template(self):
        # Mutating the state build_block hands back must not poison the
        # cached template other peers fork their imports from.
        cache = BlockApplyCache()
        miner_chain, peer_chain = chain_pair(cache)
        block, post_state = miner_chain.build_block(
            [transfer(0)], miner=MINER, timestamp=13.0
        )
        post_state.set_balance(BOB, 1)  # caller scribbles on its copy
        miner_chain.add_block(block)
        peer_chain.add_block(block)
        assert peer_chain.state.get_balance(BOB) == 10**18 + 100
        assert peer_chain.state.state_root() == block.header.state_root

    def test_peer_forks_are_isolated_after_cached_import(self):
        cache = BlockApplyCache()
        miner_chain, peer_chain = chain_pair(cache)
        block, _ = miner_chain.build_block([transfer(0)], miner=MINER, timestamp=13.0)
        miner_chain.add_block(block)
        peer_chain.add_block(block)
        # Mutating one peer's head state must not leak into the other's.
        miner_chain.state.set_balance(BOB, 1)
        assert peer_chain.state.get_balance(BOB) == 10**18 + 100

    def test_divergent_lineage_misses(self):
        cache = BlockApplyCache()
        miner_chain, peer_chain = chain_pair(cache)
        block_a, _ = miner_chain.build_block([transfer(0)], miner=MINER, timestamp=13.0)
        miner_chain.add_block(block_a)
        # peer imports nothing; its lineage is still at genesis, so a block
        # built on top of block_a cannot hit the cache for it.
        block_b, _ = miner_chain.build_block([transfer(1)], miner=MINER, timestamp=26.0)
        miner_chain.add_block(block_b)
        with pytest.raises(ChainError):
            peer_chain.add_block(block_b)


class TestCacheHonesty:
    def test_tampered_transaction_block_is_not_cached_and_rejected(self):
        cache = BlockApplyCache()
        miner_chain, peer_chain = chain_pair(cache)
        tampered = transfer(0).with_data(b"\xde\xad")  # keeps the old signature
        block, _ = miner_chain.build_block([tampered], miner=MINER, timestamp=13.0)
        assert cache.stats()["entries"] == 0, "invalid signatures must not be cached"
        with pytest.raises(ChainError):
            miner_chain.add_block(block)
        with pytest.raises(ChainError):
            peer_chain.add_block(block)
        assert miner_chain.height == 0 and peer_chain.height == 0

    def test_hand_built_block_still_fully_validated(self):
        cache = BlockApplyCache()
        miner_chain, peer_chain = chain_pair(cache)
        block, _ = miner_chain.build_block([transfer(0)], miner=MINER, timestamp=13.0)
        # A block the builder never published to the cache (e.g. forged by
        # an adversary) takes the full replay path on every peer.
        cache.clear()
        peer_chain.add_block(block)
        assert peer_chain.state.get_balance(BOB) == 10**18 + 100
        assert cache.stats()["entries"] == 1, "the first validator repopulates"

    def test_genesis_token_is_shared_per_genesis_hash(self):
        cache = BlockApplyCache()
        token = cache.genesis_token(b"\x01" * 32)
        assert cache.genesis_token(b"\x01" * 32) is token
        assert cache.genesis_token(b"\x02" * 32) is not token

    def test_store_is_first_writer_wins(self):
        cache = BlockApplyCache()
        parent = cache.genesis_token(b"\x01" * 32)
        first = cache.store(parent, b"\xaa" * 32, object())
        second = cache.store(parent, b"\xaa" * 32, object())
        assert first is second
