"""Tests for miner ordering policies, block intervals, and block assembly."""

import pytest

from repro.chain import Blockchain, GenesisConfig, Transaction
from repro.chain.state import WorldState
from repro.consensus.interval import FixedInterval, PoissonInterval
from repro.consensus.miner import Miner, MinerConfig
from repro.consensus.policies import (
    ArrivalJitterPolicy,
    FeeArrivalPolicy,
    FifoPolicy,
    RandomPolicy,
    merge_sender_queues,
)
from repro.crypto.addresses import address_from_label
from repro.txpool.pool import PoolEntry, TxPool

from ..oracles import ValueTransferExecutor

ALICE = address_from_label("alice")
BOB = address_from_label("bob")
MINER_ADDRESS = address_from_label("miner")


def entry(sender, nonce, arrival, gas_price=1):
    transaction = Transaction(sender=sender, nonce=nonce, to=MINER_ADDRESS, gas_price=gas_price)
    return PoolEntry(transaction=transaction, arrival_time=arrival)


def executable_map(*entries):
    grouped = {}
    for item in entries:
        grouped.setdefault(item.sender, []).append(item)
    for sender in grouped:
        grouped[sender].sort(key=lambda item: item.nonce)
    return grouped


def nonce_order_preserved(ordered, sender):
    nonces = [tx.nonce for tx in ordered if tx.sender == sender]
    return nonces == sorted(nonces)


class TestMergeSenderQueues:
    def test_preserves_per_sender_nonce_order_regardless_of_key(self):
        entries = [entry(ALICE, 0, 5.0), entry(ALICE, 1, 1.0), entry(BOB, 0, 3.0)]
        ordered = merge_sender_queues(executable_map(*entries), head_key=lambda e: -e.arrival_time)
        assert nonce_order_preserved(ordered, ALICE)

    def test_empty_input(self):
        assert merge_sender_queues({}, head_key=lambda e: 0) == []


class TestBaselinePolicies:
    def test_fifo_orders_by_arrival(self):
        entries = [entry(ALICE, 0, 5.0), entry(BOB, 0, 1.0)]
        ordered = FifoPolicy().order(executable_map(*entries), WorldState(), 0.0)
        assert [tx.sender for tx in ordered] == [BOB, ALICE]

    def test_fee_policy_prefers_higher_gas_price(self):
        entries = [entry(ALICE, 0, 1.0, gas_price=1), entry(BOB, 0, 5.0, gas_price=10)]
        ordered = FeeArrivalPolicy().order(executable_map(*entries), WorldState(), 0.0)
        assert [tx.sender for tx in ordered] == [BOB, ALICE]

    def test_fee_policy_breaks_ties_by_arrival(self):
        entries = [entry(ALICE, 0, 9.0), entry(BOB, 0, 2.0)]
        ordered = FeeArrivalPolicy().order(executable_map(*entries), WorldState(), 0.0)
        assert [tx.sender for tx in ordered] == [BOB, ALICE]

    def test_random_policy_is_seed_deterministic(self):
        entries = [entry(ALICE, index, float(index)) for index in range(3)]
        entries += [entry(BOB, index, float(index) + 0.5) for index in range(3)]
        first = RandomPolicy(seed=7).order(executable_map(*entries), WorldState(), 0.0)
        second = RandomPolicy(seed=7).order(executable_map(*entries), WorldState(), 0.0)
        assert [tx.hash for tx in first] == [tx.hash for tx in second]

    def test_random_policy_preserves_nonce_order(self):
        entries = [entry(ALICE, index, float(index)) for index in range(5)]
        ordered = RandomPolicy(seed=3).order(executable_map(*entries), WorldState(), 0.0)
        assert nonce_order_preserved(ordered, ALICE)

    def test_jitter_policy_zero_jitter_equals_arrival_order(self):
        entries = [entry(ALICE, 0, 5.0), entry(BOB, 0, 1.0)]
        ordered = ArrivalJitterPolicy(jitter_seconds=0.0).order(
            executable_map(*entries), WorldState(), 0.0
        )
        assert [tx.sender for tx in ordered] == [BOB, ALICE]

    def test_jitter_policy_can_reorder_close_arrivals(self):
        close_entries = [entry(ALICE, 0, 0.0), entry(BOB, 0, 0.1)]
        reordered_any = False
        for seed in range(20):
            ordered = ArrivalJitterPolicy(jitter_seconds=10.0, seed=seed).order(
                executable_map(*close_entries), WorldState(), 0.0
            )
            if [tx.sender for tx in ordered] == [ALICE, BOB]:
                continue
            reordered_any = True
        assert reordered_any

    def test_jitter_policy_respects_gas_price_dominance(self):
        entries = [entry(ALICE, 0, 0.0, gas_price=1), entry(BOB, 0, 50.0, gas_price=99)]
        ordered = ArrivalJitterPolicy(jitter_seconds=5.0, seed=1).order(
            executable_map(*entries), WorldState(), 0.0
        )
        assert ordered[0].sender == BOB


class TestIntervalModels:
    def test_fixed_interval(self):
        model = FixedInterval(13.0)
        assert model.next_interval() == 13.0

    def test_fixed_interval_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            FixedInterval(0)

    def test_poisson_interval_respects_minimum_and_seed(self):
        model = PoissonInterval(mean=13.0, seed=5, minimum=1.0)
        samples = [model.next_interval() for _ in range(200)]
        assert all(sample >= 1.0 for sample in samples)
        replay = PoissonInterval(mean=13.0, seed=5, minimum=1.0)
        assert [replay.next_interval() for _ in range(200)] == samples

    def test_poisson_mean_is_roughly_right(self):
        model = PoissonInterval(mean=13.0, seed=11, minimum=0.0)
        samples = [model.next_interval() for _ in range(3000)]
        assert 11.0 < sum(samples) / len(samples) < 15.0


class TestMiner:
    @pytest.fixture
    def setup(self):
        genesis = GenesisConfig.for_labels(["alice", "bob", "miner"], balance=10**18)
        chain = Blockchain(ValueTransferExecutor(), genesis)
        pool = TxPool()
        miner = Miner(MINER_ADDRESS, chain, pool, policy=FifoPolicy())
        return chain, pool, miner

    def test_produce_block_includes_pool_transactions(self, setup):
        chain, pool, miner = setup
        transaction = Transaction(sender=ALICE, nonce=0, to=BOB, value=1)
        pool.add(transaction, 1.0)
        block, _ = miner.produce_block(timestamp=13.0)
        assert block.contains(transaction.hash)
        assert miner.blocks_mined == 1

    def test_gas_limit_truncation_keeps_nonce_runs_gapless(self, setup):
        chain, pool, miner = setup
        miner.config = MinerConfig(gas_limit=250_000)
        for nonce in range(3):
            pool.add(Transaction(sender=ALICE, nonce=nonce, to=BOB, gas_limit=100_000), float(nonce))
        block, _ = miner.produce_block(timestamp=13.0)
        nonces = [tx.nonce for tx in block.transactions]
        assert nonces == sorted(nonces)
        assert len(nonces) <= 2

    def test_max_transactions_cap(self, setup):
        chain, pool, miner = setup
        miner.config = MinerConfig(max_transactions=2)
        for nonce in range(5):
            pool.add(Transaction(sender=ALICE, nonce=nonce, to=BOB), float(nonce))
        block, _ = miner.produce_block(timestamp=13.0)
        assert block.transaction_count() == 2

    def test_skips_non_executable_nonces(self, setup):
        chain, pool, miner = setup
        pool.add(Transaction(sender=ALICE, nonce=5, to=BOB), 1.0)
        block, _ = miner.produce_block(timestamp=13.0)
        assert block.transaction_count() == 0

    def test_produced_block_validates_on_another_peer(self, setup):
        chain, pool, miner = setup
        pool.add(Transaction(sender=ALICE, nonce=0, to=BOB, value=5), 1.0)
        block, _ = miner.produce_block(timestamp=13.0)
        other = Blockchain(
            ValueTransferExecutor(),
            GenesisConfig.for_labels(["alice", "bob", "miner"], balance=10**18),
        )
        other.add_block(block)
        assert other.height == 1
