"""Zero-copy gossip: frozen objects on the wire, encodings held by the objects
themselves, and the round-trip conformance that keeps the codec honest."""

import gc
import sys
import threading
import weakref
from dataclasses import FrozenInstanceError

import pytest

from repro.chain.block import Block, BlockHeader
from repro.chain.genesis import GenesisConfig
from repro.chain.receipt import Receipt
from repro.chain.transaction import Transaction
from repro.chain.wire import wire_cache_stats, wire_encoding
from repro.crypto.addresses import address_from_label
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.net.peer import Peer
from repro.net.sim import Simulator

from ..oracles import decode_block, decode_transaction, encode_block, encode_header, encode_transaction

ALICE = address_from_label("alice")
BOB = address_from_label("bob")


def small_network(num_peers: int = 3):
    simulator = Simulator()
    network = Network(simulator, latency=ConstantLatency(0.05), seed=7)
    genesis = GenesisConfig.for_labels(["alice", "bob"], balance=10**18)
    peers = [network.add_peer(Peer(f"peer-{i}", genesis)) for i in range(num_peers)]
    return simulator, network, peers


def moved(before: dict) -> tuple:
    after = wire_cache_stats()
    return (after["hits"] - before["hits"], after["misses"] - before["misses"])


class TestWireMemo:
    """``wire_encoding`` counts; the bytes live on the artefact.  A miss is
    the call that derived them, a hit one that found them there."""

    def test_encoding_computed_at_most_once_per_object(self):
        transaction = Transaction(sender=ALICE, nonce=0, to=BOB, value=5)
        before = wire_cache_stats()
        first = wire_encoding(transaction)
        assert moved(before) == (0, 1), "the first call derives the bytes"
        second = wire_encoding(transaction)
        assert moved(before) == (1, 1), "the second finds them on the object"
        assert first is second is transaction.wire
        # An equal-but-distinct object is a distinct wire artefact.
        twin = Transaction(sender=ALICE, nonce=0, to=BOB, value=5)
        assert wire_encoding(twin) == first
        assert wire_encoding(twin) is not first
        assert moved(before) == (2, 2), "a structurally equal twin is its own miss"

    def test_blocks_and_headers_hold_their_bytes_too(self):
        _simulator, _network, peers = small_network(num_peers=1)
        built, _ = peers[0].chain.build_block([], miner=ALICE, timestamp=1.0)
        block = decode_block(encode_block(built))  # a twin with nothing derived yet
        # A header derives its bytes as it is built, so every call finds them;
        # a block derives its own on the first call.
        for artefact, encode, expected in ((block.header, encode_header, (3, 0)), (block, encode_block, (2, 1))):
            before = wire_cache_stats()
            assert wire_encoding(artefact) is wire_encoding(artefact)
            assert wire_encoding(artefact) == encode(artefact)
            assert moved(before) == expected

    def test_receipts_are_sealed_so_their_bytes_are_derived_once(self):
        _simulator, _network, peers = small_network(num_peers=1)
        transaction = Transaction(sender=ALICE, nonce=0, to=BOB, value=5)
        block, _ = peers[0].chain.build_block([transaction], miner=ALICE, timestamp=1.0)
        receipt = block.receipts[0]
        before = wire_cache_stats()
        stamped = wire_encoding(receipt)
        with pytest.raises(FrozenInstanceError):
            receipt.transaction_index = 7
        assert wire_encoding(receipt) is stamped
        assert moved(before) == (1, 1)

    def test_memoised_encoding_matches_fresh_encode(self):
        transaction = Transaction(sender=ALICE, nonce=1, to=BOB, value=9)
        assert wire_encoding(transaction) == encode_transaction(transaction)

    def test_unknown_artefact_type_rejected(self):
        with pytest.raises(TypeError):
            wire_encoding(object())


class TestSharedAcrossThreads:
    def test_concurrent_encoders_and_cache_resets_agree_on_the_bytes(self):
        """Sessions gossip on their own threads while another resets the
        process caches.  With the bytes on the objects there is no shared
        table to evict from or clear under a reader: no call may raise, and
        every thread must read the written-out encoding — for artefacts all
        threads race to derive and for ones only it holds."""
        from repro.api import reset_process_caches

        def artefacts(tag: int):
            transactions = [
                Transaction(sender=ALICE, nonce=tag * 100 + nonce, to=BOB, value=nonce, submitted_at=0.5)
                for nonce in range(3)
            ]
            header = BlockHeader(parent_hash=bytes([tag]) * 32, number=tag + 1, timestamp=tag + 0.25)
            receipts = [
                Receipt(transaction.hash, True, 21_000, block_number=tag + 1, transaction_index=index)
                for index, transaction in enumerate(transactions)
            ]
            return transactions + [header, Block(header, transactions, receipts)]

        encoders = {Transaction: encode_transaction, BlockHeader: encode_header, Block: encode_block}

        def encoded_alone(tag: int) -> list:
            return [encoders[type(twin)](twin) for twin in artefacts(tag)]

        rounds, workers = 40, 8
        # Expected bytes come from structurally equal twins, so the shared
        # objects reach the threads with nothing derived on them yet.
        shared = [artefacts(tag) for tag in range(rounds)]
        expected_shared = [encoded_alone(tag) for tag in range(rounds)]
        failures, stop = [], threading.Event()

        def encoder(worker: int) -> None:
            try:
                for tag in range(rounds):
                    for artefact, expected in zip(shared[tag], expected_shared[tag]):
                        assert wire_encoding(artefact) == expected
                    private = artefacts(100 + worker)
                    encoded = [wire_encoding(artefact) for artefact in private]
                    assert encoded == encoded_alone(100 + worker)
            except Exception as error:  # surfaced below, on the main thread
                failures.append(error)

        def resetter() -> None:
            try:
                while not stop.is_set():
                    reset_process_caches()
            except Exception as error:
                failures.append(error)

        threads = [threading.Thread(target=encoder, args=(worker,)) for worker in range(workers)]
        clearing = threading.Thread(target=resetter)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            clearing.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            stop.set()
            clearing.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads + [clearing])
        assert not failures, failures


class TestZeroCopyDelivery:
    def test_gossiped_transaction_is_the_same_object_everywhere(self):
        simulator, network, peers = small_network()
        transaction = Transaction(sender=ALICE, nonce=0, to=BOB, value=5)
        peers[0].submit_transaction(transaction, now=0.0)
        simulator.run()
        for peer in peers:
            pooled = peer.pool.transactions()
            assert len(pooled) == 1
            assert pooled[0] is transaction, "delivery must not copy the object"

    def test_gossiped_block_is_the_same_object_everywhere(self):
        simulator, network, peers = small_network()
        transaction = Transaction(sender=ALICE, nonce=0, to=BOB, value=5)
        peers[0].submit_transaction(transaction, now=0.0)
        simulator.run()
        block, _ = peers[0].chain.build_block(
            [transaction], miner=ALICE, timestamp=1.0
        )
        network.broadcast_block(peers[0], block)
        simulator.run()
        for peer in peers:
            assert peer.chain.head is block

    def test_byte_accounting_counts_wire_size_per_hop(self):
        simulator, network, peers = small_network(num_peers=3)
        transaction = Transaction(sender=ALICE, nonce=0, to=BOB, value=5)
        peers[0].submit_transaction(transaction, now=0.0)
        simulator.run()
        # two delivery hops (origin excluded), one encoding
        expected = 2 * len(encode_transaction(transaction))
        assert network.stats.transaction_bytes == expected
        block, _ = peers[0].chain.build_block([transaction], miner=ALICE, timestamp=1.0)
        network.broadcast_block(peers[0], block)
        simulator.run()
        assert network.stats.block_bytes == 2 * len(encode_block(block))


class TestTrialScopedLifetime:
    def test_a_finished_trial_pins_none_of_its_blocks(self):
        # Wire bytes live on the gossiped objects, so nothing process-wide
        # outlives the run — for direct engine callers and sweep workers alike.
        from repro.api import SimulationBuilder
        from repro.api.engine import run_simulation

        spec = (
            SimulationBuilder()
            .workload("market", num_buys=4)
            .scenario("geth_unmodified")
            .miners(1)
            .clients(1)
            .seed(3)
            .build()
        )
        result = run_simulation(spec)
        head = weakref.ref(result.peers[0].chain.head)
        assert head()._wire is not None, "the head was gossiped, so it holds its bytes"
        del result
        gc.collect()
        assert head() is None


class TestRoundTripConformance:
    def test_every_gossiped_artefact_survives_the_wire(self):
        """decode(encode(x)) reproduces every artefact a run gossips, so the
        zero-copy fast path never hides a codec divergence."""
        simulator, network, peers = small_network()
        transactions = [
            Transaction(sender=ALICE, nonce=nonce, to=BOB, value=5 + nonce)
            for nonce in range(3)
        ]
        for transaction in transactions:
            peers[0].submit_transaction(transaction, now=0.0)
        simulator.run()
        block, _ = peers[0].chain.build_block(transactions, miner=ALICE, timestamp=1.0)
        network.broadcast_block(peers[0], block)
        simulator.run()

        for transaction in transactions:
            decoded = decode_transaction(wire_encoding(transaction))
            assert decoded == transaction
            assert decoded.hash == transaction.hash
            assert decoded is not transaction
        decoded_block = decode_block(wire_encoding(block))
        assert decoded_block.hash == block.hash
        assert decoded_block.transactions == block.transactions
        assert decoded_block.verify_roots()
