"""Tests for windowed gossip bookkeeping and pruned-horizon range sync."""

import gc
import weakref

import pytest

from repro.chain import GenesisConfig, Transaction
from repro.crypto.addresses import address_from_label
from repro.net.latency import ConstantLatency
from repro.net.mining import BlockProductionProcess
from repro.net.network import Network
from repro.net.peer import Peer
from repro.net.sim import Simulator

ALICE = address_from_label("alice")
BOB = address_from_label("bob")
MINER = address_from_label("miner")


def build_network(history_limit=None, retain_blocks=None, num_peers=2):
    simulator = Simulator()
    network = Network(
        simulator,
        latency=ConstantLatency(0.05),
        seed=0,
        history_limit=history_limit,
    )
    genesis = GenesisConfig.for_labels(["alice", "bob", "miner"], balance=10**18)
    peers = [
        network.add_peer(
            Peer(f"peer-{index}", genesis, retain_blocks=retain_blocks)
        )
        for index in range(num_peers)
    ]
    return simulator, network, peers


def grow(chain, blocks, start_nonce=0):
    for offset in range(blocks):
        transaction = Transaction(
            sender=ALICE, nonce=start_nonce + offset, to=BOB, value=1
        )
        block, _ = chain.build_block(
            [transaction], miner=MINER, timestamp=float(chain.height + 1)
        )
        chain.add_block(block)


class TestWindowedBookkeeping:
    def test_history_limit_must_be_positive(self):
        with pytest.raises(ValueError, match="history_limit"):
            Network(Simulator(), history_limit=0)

    def test_seen_sets_evict_oldest_first(self):
        _, network, _ = build_network(history_limit=3)
        hashes = [bytes([index]) * 32 for index in range(5)]
        for block_hash in hashes:
            network._mark_seen("peer-0", block_hash)
        seen = network._seen_blocks["peer-0"]
        # The dedup structure stays a plain set (tests and the flood path
        # poke it as one); only the window bounds its size.
        assert isinstance(seen, set)
        assert seen == set(hashes[2:])

    def test_marking_a_seen_hash_again_does_not_double_count(self):
        _, network, _ = build_network(history_limit=3)
        block_hash = b"\x01" * 32
        network._mark_seen("peer-0", block_hash)
        network._mark_seen("peer-0", block_hash)
        assert len(network._seen_order["peer-0"]) == 1

    def test_unlimited_network_keeps_every_hash(self):
        _, network, _ = build_network(history_limit=None)
        for index in range(50):
            network._mark_seen("peer-0", bytes([index]) * 32)
        assert len(network._seen_blocks["peer-0"]) == 50
        assert "peer-0" not in network._seen_order

    def test_block_birth_times_are_capped(self):
        simulator, network, _ = build_network(history_limit=2)
        for index in range(20):
            network._record_block_born(bytes([index]) * 32)
        assert len(network._block_born) <= 4 * 2

    def test_propagation_samples_become_a_trailing_window(self):
        _, limited, _ = build_network(history_limit=1)
        for _ in range(100):
            limited._propagation_samples.append(0.1)
        assert len(limited.propagation_samples()) == 32
        _, unlimited, _ = build_network(history_limit=None)
        for _ in range(100):
            unlimited._propagation_samples.append(0.1)
        assert len(unlimited.propagation_samples()) == 100


class TestPrunedRangeSync:
    def test_sync_spanning_pruned_horizon_is_a_counted_miss(self):
        """A provider whose window starts above the requester's head cannot
        serve a connecting range: no request is burned, the miss is counted."""
        simulator, network, (requester, provider) = build_network(
            history_limit=4, retain_blocks=4
        )
        grow(provider.chain, 12)
        assert provider.chain.earliest_block_number > requester.chain.height + 1
        network._request_ancestors(requester, provider.peer_id, provider.chain.head)
        assert network.stats.sync_pruned_misses == 1
        assert network.stats.sync_requests == 0
        simulator.run()
        assert requester.chain.height == 0  # nothing useless was delivered

    def test_sync_within_the_window_still_serves(self):
        """When the window still covers the gap, range sync works as before."""
        simulator, network, (requester, provider) = build_network(
            history_limit=32, retain_blocks=32
        )
        grow(provider.chain, 8)
        network._request_ancestors(requester, provider.peer_id, provider.chain.head)
        assert network.stats.sync_requests == 1
        assert network.stats.sync_pruned_misses == 0
        simulator.run()
        assert requester.chain.height == provider.chain.height - 1


class TestBoundedBlockLog:
    def test_block_log_windows_under_history_limit(self):
        simulator, network, (peer, _) = build_network(history_limit=3)
        process = BlockProductionProcess(
            simulator, network, [peer], seed=0, history_limit=3
        )
        for index in range(10):
            process.block_log.append((float(index), peer.peer_id, object()))
        assert len(process.block_log) == 3
        assert process.block_log[0][0] == 7.0

    def test_history_limit_must_be_positive(self):
        simulator, network, (peer, _) = build_network()
        with pytest.raises(ValueError, match="history_limit"):
            BlockProductionProcess(
                simulator, network, [peer], seed=0, history_limit=0
            )


class TestWireBytesLifetime:
    def test_evicted_block_is_released_with_its_bytes(self):
        """A gossiped block owns its wire bytes, so nothing outside the
        chains' windows keeps it (or them) alive once retention evicts it."""
        simulator, network, (miner, follower) = build_network(
            history_limit=4, retain_blocks=4
        )
        early = None
        for offset in range(50):
            transaction = Transaction(sender=ALICE, nonce=offset, to=BOB, value=1)
            block, _ = miner.chain.build_block(
                [transaction], miner=MINER, timestamp=float(offset + 1)
            )
            network.broadcast_block(miner, block)
            simulator.run()
            if offset == 10:
                assert "wire" in block.__dict__, "broadcast derived the bytes"
                early = weakref.ref(block)
            del block
        assert miner.chain.height == follower.chain.height == 50
        assert follower.chain.earliest_block_number == 47
        assert network.stats.block_bytes > 0
        gc.collect()
        assert early() is None
