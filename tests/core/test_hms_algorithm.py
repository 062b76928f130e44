"""Tests for Algorithms 1-3: PROCESS, SERIES/DEEPESTBRANCH, and HASHMARKSET."""

import pytest

from repro.chain.transaction import Transaction
from repro.contracts.sereth import SerethContract
from repro.core.hms.fpv import (
    AMV,
    EMPTY_POOL_SENTINEL,
    HEAD_FLAG,
    SUCCESS_FLAG,
    compute_mark,
    fpv_to_words,
)
from repro.core.hms.hash_mark_set import HashMarkSet
from repro.core.hms.process import HMSConfig, process_transactions
from repro.core.hms.series import build_series, deepest_branch_iterative
from repro.crypto.addresses import address_from_label
from repro.encoding.hexutil import to_bytes32

from ..oracles import deepest_branch_recursive

OWNER = address_from_label("owner")
OTHER = address_from_label("other")
CONTRACT = address_from_label("sereth-exchange")
OTHER_CONTRACT = address_from_label("another-contract")
SET_ABI = SerethContract.function_by_name("set").abi
BUY_ABI = SerethContract.function_by_name("buy").abi

GENESIS_MARK = to_bytes32(b"genesis-mark")


def set_transaction(previous_mark, price, nonce, flag=SUCCESS_FLAG, sender=OWNER, to=CONTRACT):
    calldata = SET_ABI.encode_call(fpv_to_words(flag, previous_mark, price))
    return Transaction(sender=sender, nonce=nonce, to=to, data=calldata)


def buy_transaction(mark, price, nonce, sender=OTHER):
    calldata = BUY_ABI.encode_call(fpv_to_words(to_bytes32(0), mark, price))
    return Transaction(sender=sender, nonce=nonce, to=CONTRACT, data=calldata)


def chain_of_sets(length, start_mark=GENESIS_MARK, start_price=100, start_nonce=0):
    """Build a well-formed chain of set transactions; returns (transactions, marks)."""
    transactions = []
    marks = []
    mark = start_mark
    for index in range(length):
        price = start_price + index
        flag = HEAD_FLAG if index == 0 else SUCCESS_FLAG
        transaction = set_transaction(mark, price, nonce=start_nonce + index, flag=flag)
        transactions.append(transaction)
        mark = compute_mark(mark, to_bytes32(price))
        marks.append(mark)
    return transactions, marks


def with_arrivals(transactions, start=0.0, spacing=1.0):
    return [(transaction, start + index * spacing) for index, transaction in enumerate(transactions)]


CONFIG = HMSConfig(contract_address=CONTRACT, set_selector=SET_ABI.selector)


class TestProcess:
    def test_filters_only_watched_set_transactions(self):
        sets, marks = chain_of_sets(2)
        noise = [
            buy_transaction(marks[0], 100, nonce=0),
            set_transaction(GENESIS_MARK, 1, nonce=0, to=OTHER_CONTRACT),
            Transaction(sender=OTHER, nonce=1, to=CONTRACT, data=b"\x01\x02\x03\x04"),
        ]
        nodes = process_transactions(with_arrivals(sets + noise), CONFIG)
        assert len(nodes) == 2
        assert all(node.transaction in sets for node in nodes)

    def test_rejects_unflagged_sets(self):
        unflagged = set_transaction(GENESIS_MARK, 5, nonce=0, flag=to_bytes32(0))
        assert process_transactions(with_arrivals([unflagged]), CONFIG) == []

    def test_computes_marks(self):
        sets, marks = chain_of_sets(3)
        nodes = process_transactions(with_arrivals(sets), CONFIG)
        assert [node.mark for node in nodes] == marks

    def test_preserves_arrival_times(self):
        sets, _ = chain_of_sets(2)
        nodes = process_transactions(with_arrivals(sets, start=7.0, spacing=2.0), CONFIG)
        assert [node.arrival_time for node in nodes] == [7.0, 9.0]


class TestSeries:
    def test_links_form_a_single_chain(self):
        sets, marks = chain_of_sets(5)
        nodes = process_transactions(with_arrivals(sets), CONFIG)
        series = build_series(nodes)
        assert series.depth == 5
        assert series.marks() == marks
        assert series.head.transaction is sets[0]
        assert series.tail.transaction is sets[-1]

    def test_longest_branch_wins_on_fork(self):
        sets, marks = chain_of_sets(3)
        # A competing successor of the first set that leads nowhere (short branch).
        orphan = set_transaction(marks[0], 999, nonce=7, flag=SUCCESS_FLAG, sender=OTHER)
        nodes = process_transactions(with_arrivals(sets + [orphan]), CONFIG)
        series = build_series(nodes)
        assert series.depth == 3
        assert orphan not in series.transactions()

    def test_fork_of_equal_depth_resolves_deterministically(self):
        sets, marks = chain_of_sets(2)
        rival = set_transaction(marks[0], 555, nonce=9, flag=SUCCESS_FLAG, sender=OTHER)
        nodes = process_transactions(with_arrivals(sets + [rival]), CONFIG)
        first = build_series(nodes)
        nodes_again = process_transactions(with_arrivals(sets + [rival]), CONFIG)
        second = build_series(nodes_again)
        assert [n.transaction.hash for n in first] == [n.transaction.hash for n in second]

    def test_empty_input_gives_empty_series(self):
        series = build_series([])
        assert series.is_empty
        assert series.head is None and series.tail is None

    def test_missing_head_flag_falls_back_to_rootless_nodes(self):
        # All marked as successors (the head was just mined out of the pool).
        sets, marks = chain_of_sets(3)
        successors_only = [
            set_transaction(
                marks[0] if index == 0 else marks[index],
                200 + index,
                nonce=10 + index,
                flag=SUCCESS_FLAG,
            )
            for index in range(2)
        ]
        nodes = process_transactions(with_arrivals(successors_only), CONFIG)
        series = build_series(nodes)
        assert series.depth >= 1

    def test_recursive_and_iterative_searches_agree(self):
        sets, marks = chain_of_sets(6)
        rival = set_transaction(marks[1], 777, nonce=20, flag=SUCCESS_FLAG, sender=OTHER)
        nodes = process_transactions(with_arrivals(sets + [rival]), CONFIG)
        series_iterative = build_series(nodes)
        nodes2 = process_transactions(with_arrivals(sets + [rival]), CONFIG)
        series_recursive = build_series(nodes2, deepest_branch_recursive)
        assert [n.transaction.hash for n in series_iterative] == [
            n.transaction.hash for n in series_recursive
        ]

    def test_deep_chain_does_not_hit_recursion_limit_iteratively(self):
        sets, _ = chain_of_sets(600)
        nodes = process_transactions(with_arrivals(sets), CONFIG)
        series = build_series(nodes)
        assert series.depth == 600

    def test_single_node_branch_functions(self):
        sets, _ = chain_of_sets(1)
        nodes = process_transactions(with_arrivals(sets), CONFIG)
        assert deepest_branch_recursive(nodes[0]) == [nodes[0]]
        assert deepest_branch_iterative(nodes[0]) == [nodes[0]]


class TestHashMarkSet:
    def test_view_from_pending_series(self):
        sets, marks = chain_of_sets(4)
        hms = HashMarkSet(CONFIG)
        view = hms.read_uncommitted(with_arrivals(sets))
        assert view.source == "series"
        assert view.mark == marks[-1]
        assert view.value == to_bytes32(103)
        assert view.flag_for_next == SUCCESS_FLAG
        assert view.depth == 4

    def test_view_falls_back_to_committed_state(self):
        committed = AMV(address=to_bytes32(OWNER), mark=GENESIS_MARK, value=to_bytes32(55))
        view = HashMarkSet(CONFIG).read_uncommitted([], committed=committed)
        assert view.source == "committed"
        assert view.mark == GENESIS_MARK
        assert view.value == to_bytes32(55)
        assert view.flag_for_next == HEAD_FLAG

    def test_view_with_no_pool_and_no_committed_state(self):
        view = HashMarkSet(CONFIG).read_uncommitted([])
        assert view.source == "empty"
        assert view.mark == EMPTY_POOL_SENTINEL

    def test_view_ignores_buys_and_foreign_traffic(self):
        sets, marks = chain_of_sets(2)
        noise = [
            buy_transaction(marks[-1], 101, nonce=0),
            set_transaction(GENESIS_MARK, 9, nonce=0, to=OTHER_CONTRACT),
        ]
        view = HashMarkSet(CONFIG).read_uncommitted(with_arrivals(sets + noise))
        assert view.filtered_size == 2
        assert view.pool_size == 4
        assert view.mark == marks[-1]

    def test_serialize_convenience(self):
        sets, _ = chain_of_sets(3)
        series = HashMarkSet(CONFIG).serialize(with_arrivals(sets))
        assert series.depth == 3

    def test_intermediate_states_are_preserved_in_series(self):
        """Unlike the committed READ-COMMITTED view, the series keeps every
        intermediate state change (the paper's lost-update discussion)."""
        sets, marks = chain_of_sets(5)
        series = HashMarkSet(CONFIG).serialize(with_arrivals(sets))
        assert series.marks() == marks
        values = [node.fpv.value for node in series]
        assert values == [to_bytes32(100 + index) for index in range(5)]
