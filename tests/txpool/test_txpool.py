"""Tests for the pending transaction pool."""

import pytest

from repro.chain.block import Block, BlockHeader, transactions_root
from repro.chain.receipt import Receipt, receipts_root
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction
from repro.crypto.addresses import address_from_label
from repro.txpool.pool import TxPool

ALICE = address_from_label("alice")
BOB = address_from_label("bob")
CAROL = address_from_label("carol")


def make_transaction(sender=ALICE, nonce=0, gas_price=1) -> Transaction:
    return Transaction(sender=sender, nonce=nonce, to=BOB, value=1, gas_price=gas_price)


def make_block(transactions):
    receipts = [Receipt(transaction_hash=tx.hash, success=True, gas_used=1) for tx in transactions]
    header = BlockHeader(
        parent_hash=b"\x00" * 32,
        number=1,
        timestamp=1.0,
        transactions_root=transactions_root(transactions),
        receipts_root=receipts_root(receipts),
    )
    return Block(header=header, transactions=transactions, receipts=receipts)


class TestAdd:
    def test_add_and_contains(self):
        pool = TxPool()
        transaction = make_transaction()
        assert pool.add(transaction, arrival_time=1.0)
        assert transaction.hash in pool
        assert len(pool) == 1

    def test_duplicate_rejected(self):
        pool = TxPool()
        transaction = make_transaction()
        pool.add(transaction, 1.0)
        assert not pool.add(transaction, 2.0)
        assert len(pool) == 1

    def test_replacement_requires_higher_gas_price(self):
        pool = TxPool()
        cheap = make_transaction(gas_price=1)
        expensive = make_transaction(gas_price=5)
        pool.add(cheap, 1.0)
        assert not pool.add(make_transaction(gas_price=1), 2.0) or True  # same tx is duplicate
        assert pool.add(expensive, 2.0)
        assert expensive.hash in pool
        assert cheap.hash not in pool

    def test_max_size_drops_excess(self):
        pool = TxPool(max_size=1)
        pool.add(make_transaction(nonce=0), 1.0)
        assert not pool.add(make_transaction(nonce=1), 2.0)
        assert pool.dropped_count == 1


class TestOrderingViews:
    def test_entries_are_arrival_ordered(self):
        pool = TxPool()
        late = make_transaction(sender=ALICE, nonce=0)
        early = make_transaction(sender=BOB, nonce=0)
        pool.add(late, 5.0)
        pool.add(early, 1.0)
        assert [entry.transaction for entry in pool.entries()] == [early, late]

    def test_transactions_with_arrival_shape(self):
        pool = TxPool()
        transaction = make_transaction()
        pool.add(transaction, 3.0)
        assert pool.transactions_with_arrival() == [(transaction, 3.0)]

    def test_pending_by_sender_nonce_ordered(self):
        pool = TxPool()
        second = make_transaction(nonce=1)
        first = make_transaction(nonce=0)
        pool.add(second, 1.0)
        pool.add(first, 2.0)
        grouped = pool.pending_by_sender()
        assert [entry.nonce for entry in grouped[ALICE]] == [0, 1]

    def test_executable_by_sender_requires_gapless_run(self):
        pool = TxPool()
        state = WorldState()
        pool.add(make_transaction(nonce=0), 1.0)
        pool.add(make_transaction(nonce=2), 2.0)
        executable = pool.executable_by_sender(state)
        assert [entry.nonce for entry in executable[ALICE]] == [0]

    def test_executable_by_sender_starts_at_account_nonce(self):
        pool = TxPool()
        state = WorldState()
        state.increment_nonce(ALICE)
        pool.add(make_transaction(nonce=0), 1.0)
        pool.add(make_transaction(nonce=1), 2.0)
        executable = pool.executable_by_sender(state)
        assert [entry.nonce for entry in executable[ALICE]] == [1]

    def test_sender_with_no_executable_run_is_absent(self):
        pool = TxPool()
        state = WorldState()
        pool.add(make_transaction(nonce=3), 1.0)
        assert ALICE not in pool.executable_by_sender(state)


class TestRemoval:
    def test_remove_committed(self):
        pool = TxPool()
        included = make_transaction(sender=ALICE)
        pending = make_transaction(sender=BOB)
        pool.add(included, 1.0)
        pool.add(pending, 1.0)
        removed = pool.remove_committed(make_block([included]))
        assert removed == 1
        assert included.hash not in pool
        assert pending.hash in pool

    def test_drop_stale_removes_low_nonces(self):
        pool = TxPool()
        state = WorldState()
        state.increment_nonce(ALICE)
        state.increment_nonce(ALICE)
        pool.add(make_transaction(nonce=0), 1.0)
        pool.add(make_transaction(nonce=1), 1.0)
        pool.add(make_transaction(nonce=2), 1.0)
        dropped = pool.drop_stale(state)
        assert dropped == 2
        assert len(pool) == 1

    def test_remove_unknown_returns_none(self):
        assert TxPool().remove(b"\x00" * 32) is None

    def test_clear(self):
        pool = TxPool()
        pool.add(make_transaction(), 1.0)
        pool.clear()
        assert len(pool) == 0
        assert pool.pending_by_sender() == {}


class TestReplacementAtCapacity:
    """Regression: a gas-price replacement does not grow the pool, so it must
    be admitted even when the pool sits at ``max_size``."""

    def test_replacement_accepted_when_pool_full(self):
        pool = TxPool(max_size=1)
        cheap = make_transaction(gas_price=1)
        expensive = make_transaction(gas_price=5)
        assert pool.add(cheap, 1.0)
        assert len(pool) == 1  # at capacity
        assert pool.add(expensive, 2.0)
        assert expensive.hash in pool
        assert cheap.hash not in pool
        assert len(pool) == 1
        assert pool.dropped_count == 0

    def test_lower_priced_replacement_still_rejected_when_full(self):
        pool = TxPool(max_size=1)
        expensive = make_transaction(gas_price=5)
        pool.add(expensive, 1.0)
        assert not pool.add(make_transaction(gas_price=2), 2.0)
        assert expensive.hash in pool

    def test_new_sender_still_dropped_when_full(self):
        pool = TxPool(max_size=1)
        pool.add(make_transaction(sender=ALICE), 1.0)
        assert not pool.add(make_transaction(sender=CAROL), 2.0)
        assert pool.dropped_count == 1

    def test_replacement_updates_arrival_order(self):
        pool = TxPool(max_size=2)
        first = make_transaction(sender=ALICE, nonce=0, gas_price=1)
        other = make_transaction(sender=CAROL, nonce=0, gas_price=1)
        replacement = make_transaction(sender=ALICE, nonce=0, gas_price=9)
        pool.add(first, 1.0)
        pool.add(other, 2.0)
        assert pool.add(replacement, 3.0)
        ordered = [entry.transaction.hash for entry in pool.entries()]
        assert ordered == [other.hash, replacement.hash]


class TestArrivalOrderIndex:
    """entries() reads the maintained order index; it must match a sort."""

    def test_order_matches_sorted_after_churn(self):
        pool = TxPool()
        transactions = [
            make_transaction(sender=sender, nonce=nonce, gas_price=1 + nonce)
            for sender in (ALICE, CAROL)
            for nonce in range(8)
        ]
        arrivals = [7.0, 1.0, 5.0, 3.0, 9.0, 2.0, 8.0, 4.0, 6.5, 0.5, 2.5, 7.5, 1.5, 9.5, 3.5, 0.1]
        for transaction, arrival in zip(transactions, arrivals):
            pool.add(transaction, arrival)
        for transaction in transactions[::3]:
            pool.remove(transaction.hash)
        entries = pool.entries()
        assert entries == sorted(
            entries, key=lambda entry: (entry.arrival_time, entry.hash)
        )
        assert len(entries) == len(pool)
        assert [pair for pair in pool.transactions_with_arrival()] == [
            (entry.transaction, entry.arrival_time) for entry in entries
        ]

    def test_clear_resets_order_index(self):
        pool = TxPool()
        pool.add(make_transaction(), 1.0)
        pool.clear()
        assert pool.entries() == []
        assert pool.add(make_transaction(), 2.0)
        assert len(pool.entries()) == 1


class TestVersion:
    """``version`` moves on every mutation of the pending set and on nothing
    else — it is what HMS keys its reusable view on."""

    def test_each_kind_of_mutation_bumps_once(self):
        pool = TxPool(max_size=2)
        versions = [pool.version]

        def bumped() -> bool:
            versions.append(pool.version)
            return versions[-1] == versions[-2] + 1

        first, second = make_transaction(nonce=0), make_transaction(nonce=1)
        assert pool.add(first, 1.0) and bumped()
        assert pool.add(second, 2.0) and bumped()
        assert pool.add(make_transaction(nonce=1, gas_price=5), 3.0) and bumped(), "replacement"
        assert pool.remove(first.hash) is not None and bumped()
        assert pool.remove_committed(make_block([first, second])) == 0 and not bumped()
        pool.clear()
        assert bumped()

    def test_rejected_adds_and_reads_leave_it_untouched(self):
        pool = TxPool(max_size=1)
        transaction = make_transaction(gas_price=3)
        pool.add(transaction, 1.0)
        version = pool.version
        assert not pool.add(transaction, 2.0), "duplicate"
        assert not pool.add(make_transaction(gas_price=2), 2.0), "underpriced replacement"
        assert not pool.add(make_transaction(sender=CAROL), 2.0), "pool full"
        assert pool.remove(b"\x00" * 32) is None
        assert pool.drop_stale(WorldState()) == 0
        pool.entries(), pool.transactions_with_arrival(), pool.pending_by_sender()
        assert pool.version == version
