"""Integration tests for peers, gossip, and the block production process."""

import random

import pytest

from repro.chain import GenesisConfig, Transaction
from repro.consensus.interval import FixedInterval
from repro.consensus.policies import FifoPolicy
from repro.contracts.sereth import SET_SELECTOR, genesis_storage
from repro.crypto.addresses import address_from_label
from repro.net.latency import ConstantLatency
from repro.net.mining import BlockProductionProcess
from repro.net.network import Network
from repro.net.peer import GETH_CLIENT, Peer, SERETH_CLIENT
from repro.net.sim import Simulator

ALICE = address_from_label("alice")
BOB = address_from_label("bob")
SERETH = address_from_label("sereth-exchange")


def build_network(num_peers=3, client_kind=GETH_CLIENT, latency=0.05, seed=0):
    simulator = Simulator()
    network = Network(simulator, latency=ConstantLatency(latency), seed=seed)
    genesis = GenesisConfig.for_labels(["alice", "bob"])
    genesis.fund(address_from_label("miner/peer-0"))
    genesis.deploy_contract(SERETH, "Sereth", storage=genesis_storage(ALICE, SERETH))
    peers = [
        network.add_peer(Peer(f"peer-{index}", genesis, client_kind=client_kind))
        for index in range(num_peers)
    ]
    return simulator, network, peers


def transfer(nonce=0, submitted_at=0.0):
    return Transaction(sender=ALICE, nonce=nonce, to=BOB, value=1, submitted_at=submitted_at)


class TestGossip:
    def test_submitted_transaction_reaches_all_peers(self):
        simulator, network, peers = build_network()
        transaction = transfer()
        peers[0].submit_transaction(transaction, now=0.0)
        simulator.run()
        for peer in peers:
            assert transaction.hash in peer.pool

    def test_gossip_respects_latency(self):
        simulator, network, peers = build_network(latency=0.5)
        peers[0].submit_transaction(transfer(), now=0.0)
        assert len(peers[1].pool) == 0
        simulator.run_until(0.4)
        assert len(peers[1].pool) == 0
        simulator.run_until(0.6)
        assert len(peers[1].pool) == 1

    def test_duplicate_delivery_counted_once(self):
        simulator, network, peers = build_network()
        transaction = transfer()
        peers[0].submit_transaction(transaction, now=0.0)
        simulator.run()
        assert peers[1].receive_transaction(transaction, now=1.0) is False
        assert peers[1].stats.transactions_duplicate >= 1

    def test_transaction_loss(self):
        simulator = Simulator()
        network = Network(simulator, latency=ConstantLatency(0.01), transaction_loss_rate=0.999, seed=1)
        genesis = GenesisConfig.for_labels(["alice", "bob"])
        sender_peer = network.add_peer(Peer("a", genesis))
        receiver_peer = network.add_peer(Peer("b", genesis))
        sender_peer.submit_transaction(transfer(), now=0.0)
        simulator.run()
        assert len(receiver_peer.pool) == 0
        assert network.stats.transactions_dropped == 1


class TestBlockProduction:
    def test_blocks_propagate_and_pools_prune(self):
        simulator, network, peers = build_network()
        production = BlockProductionProcess(
            simulator, network, interval_model=FixedInterval(10.0), seed=0
        )
        production.register_miner(peers[0], policy=FifoPolicy())
        transaction = transfer()
        peers[1].submit_transaction(transaction, now=0.0)
        production.start()
        simulator.run_until(12.0)
        production.stop()
        for peer in peers:
            assert peer.chain.height == 1
            assert peer.chain.transaction_is_committed(transaction.hash)
            assert transaction.hash not in peer.pool

    def test_all_peers_converge_to_same_state_root(self):
        simulator, network, peers = build_network()
        production = BlockProductionProcess(
            simulator, network, interval_model=FixedInterval(10.0), seed=0
        )
        production.register_miner(peers[0], policy=FifoPolicy())
        for nonce in range(5):
            peers[nonce % len(peers)].submit_transaction(
                Transaction(sender=ALICE, nonce=nonce, to=BOB, value=1), now=float(nonce)
            )
        production.start()
        simulator.run_until(35.0)
        production.stop()
        roots = {peer.chain.state.state_root() for peer in peers}
        assert len(roots) == 1
        heights = {peer.chain.height for peer in peers}
        assert heights == {peers[0].chain.height}

    def test_multiple_miners_share_production_by_hash_power(self):
        simulator, network, peers = build_network(num_peers=3)
        production = BlockProductionProcess(
            simulator, network, interval_model=FixedInterval(5.0), seed=3
        )
        production.register_miner(peers[0], policy=FifoPolicy(), hash_power=1.0)
        production.register_miner(peers[1], policy=FifoPolicy(), hash_power=1.0)
        production.start()
        simulator.run_until(200.0)
        production.stop()
        winners = {peer_id for _, peer_id, _ in production.block_log}
        assert winners == {"peer-0", "peer-1"}

    def test_start_requires_a_miner(self):
        simulator, network, peers = build_network()
        production = BlockProductionProcess(simulator, network)
        with pytest.raises(ValueError):
            production.start()

    @pytest.mark.parametrize("powers", [(1.0,), (1.0, 3.0), (0.5, 0.25, 2.0), (3, 1.5, 1.5, 0.1)])
    def test_winner_draws_are_random_choices_draws(self, powers):
        """``_pick_winner`` keeps running totals instead of calling
        ``random.choices`` per block: same winners, same RNG stream — also
        for a miner that registers after blocks have been drawn."""
        seed = 20260807
        simulator, network, peers = build_network(num_peers=len(powers) + 1)
        production = BlockProductionProcess(simulator, network, seed=seed)
        reference = random.Random(seed)
        for peer, power in zip(peers, powers):
            production.register_miner(peer, hash_power=power)
        for late_power in (None, 0.75):
            if late_power is not None:
                production.register_miner(peers[-1], hash_power=late_power)
            miners = production.miners()
            weights = [handle.hash_power for handle in miners]
            for _ in range(5_000):
                expected = reference.choices(miners, weights=weights, k=1)[0]
                assert production._pick_winner() is expected
        assert production._rng.getstate() == reference.getstate()


class TestPeerClientAPI:
    def test_call_contract_serves_committed_state(self):
        simulator, network, peers = build_network()
        result = peers[0].call_contract(SERETH, "current", [], caller=ALICE, now=1.0)
        assert result.values[2] == b"\x00" * 32  # price is zero at genesis

    def test_install_hms_requires_sereth_client(self):
        simulator, network, peers = build_network(client_kind=GETH_CLIENT)
        with pytest.raises(ValueError):
            peers[0].install_hms(SERETH, SET_SELECTOR)

    def test_install_hms_on_sereth_peer(self):
        simulator, network, peers = build_network(client_kind=SERETH_CLIENT)
        provider = peers[0].install_hms(SERETH, SET_SELECTOR)
        assert peers[0].hms_provider(SERETH) is provider
        assert peers[0].engine.raa_provider is not None

    def test_next_nonce_accounts_for_pending(self):
        simulator, network, peers = build_network()
        assert peers[0].next_nonce(ALICE) == 0
        peers[0].submit_transaction(transfer(nonce=0), now=0.0)
        assert peers[0].next_nonce(ALICE) == 1

    def test_invalid_block_rejected_and_counted(self):
        simulator, network, peers = build_network()
        foreign_genesis = GenesisConfig.for_labels(["carol"])
        foreign_peer = Peer("foreign", foreign_genesis)
        foreign_block, _ = foreign_peer.chain.build_block([], miner=ALICE, timestamp=5.0)
        assert peers[0].receive_block(foreign_block) is False
        assert peers[0].stats.blocks_rejected == 1
