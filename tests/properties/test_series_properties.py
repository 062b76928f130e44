"""Property-based tests for the HMS series (Lemma 1 and Lemma 2 of the paper).

Lemma 1: the series generated from HMS preserves a sequentially consistent
ordering of transactions in the longest branch of the DAG.
Lemma 2: DEEPESTBRANCH terminates (on any finite input, including adversarial
mark structures that are not well-formed chains).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain.transaction import Transaction
from repro.contracts.sereth import SerethContract
from repro.core.hms.fpv import HEAD_FLAG, SUCCESS_FLAG, compute_mark, fpv_to_words
from repro.core.hms.process import HMSConfig, process_transactions
from repro.core.hms.series import build_series
from repro.crypto.addresses import address_from_label
from repro.encoding.hexutil import to_bytes32

from ..oracles import deepest_branch_recursive

OWNER = address_from_label("owner")
RIVAL = address_from_label("rival")
CONTRACT = address_from_label("sereth-exchange")
SET_ABI = SerethContract.function_by_name("set").abi
CONFIG = HMSConfig(contract_address=CONTRACT, set_selector=SET_ABI.selector)
GENESIS_MARK = to_bytes32(b"property-genesis")


def set_transaction(previous_mark: bytes, price: int, nonce: int, flag: bytes, sender=OWNER):
    return Transaction(
        sender=sender, nonce=nonce, to=CONTRACT,
        data=SET_ABI.encode_call(fpv_to_words(flag, previous_mark, price)),
    )


@st.composite
def forked_pools(draw):
    """A well-formed main chain plus random fork branches hanging off it."""
    main_length = draw(st.integers(min_value=1, max_value=12))
    prices = draw(
        st.lists(st.integers(min_value=1, max_value=500), min_size=main_length, max_size=main_length)
    )
    transactions = []
    marks = [GENESIS_MARK]
    nonce = 0
    for index, price in enumerate(prices):
        flag = HEAD_FLAG if index == 0 else SUCCESS_FLAG
        transactions.append(set_transaction(marks[-1], price, nonce, flag))
        marks.append(compute_mark(marks[-1], to_bytes32(price)))
        nonce += 1
    # Fork branches: start from a random mark on the main chain, shorter than
    # the remaining main chain so the main chain stays the longest branch.
    fork_count = draw(st.integers(min_value=0, max_value=3))
    fork_nonce = 0
    for _ in range(fork_count):
        attach_index = draw(st.integers(min_value=1, max_value=len(marks) - 1))
        remaining_main = main_length - attach_index
        max_fork = max(0, remaining_main - 1)
        fork_length = draw(st.integers(min_value=0, max_value=min(3, max_fork)))
        fork_mark = marks[attach_index]
        for step in range(fork_length):
            price = draw(st.integers(min_value=501, max_value=999))
            transactions.append(
                set_transaction(fork_mark, price, fork_nonce, SUCCESS_FLAG, sender=RIVAL)
            )
            fork_mark = compute_mark(fork_mark, to_bytes32(price))
            fork_nonce += 1
    arrival_order = draw(st.permutations(list(range(len(transactions)))))
    entries = [(transactions[i], float(position)) for position, i in enumerate(arrival_order)]
    return entries, main_length


class TestLemma1SequentialConsistency:
    @settings(max_examples=60, deadline=None)
    @given(forked_pools())
    def test_series_is_hash_linked_and_longest(self, pool):
        entries, main_length = pool
        nodes = process_transactions(entries, CONFIG)
        series = build_series(nodes)
        # The main chain is strictly longer than any fork, so its length is the depth.
        assert series.depth == main_length
        # Sequential consistency: each node's previous_mark is its predecessor's mark.
        for previous, current in zip(series.nodes, series.nodes[1:]):
            assert current.fpv.previous_mark == previous.mark
        # The head of the series is a head candidate (or has no in-pool predecessor).
        assert series.head.is_head_candidate or series.head.previous is None

    @settings(max_examples=60, deadline=None)
    @given(forked_pools())
    def test_series_is_insensitive_to_arrival_permutation(self, pool):
        entries, _ = pool
        series_one = build_series(process_transactions(entries, CONFIG))
        reversed_entries = [(tx, 1000.0 - arrival) for tx, arrival in entries]
        series_two = build_series(process_transactions(reversed_entries, CONFIG))
        assert series_one.marks() == series_two.marks()


class TestLemma2Termination:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.binary(min_size=32, max_size=32),   # previous_mark (arbitrary)
                st.integers(min_value=0, max_value=2**32),  # value
                st.sampled_from([HEAD_FLAG, SUCCESS_FLAG]),
            ),
            min_size=0,
            max_size=25,
        )
    )
    def test_terminates_on_arbitrary_mark_structures(self, raw_entries):
        """Adversarial pools (marks pointing anywhere, duplicates, self-references
        modulo hash collisions) must still produce a finite series."""
        transactions = [
            set_transaction(previous_mark, value, nonce, flag)
            for nonce, (previous_mark, value, flag) in enumerate(raw_entries)
        ]
        entries = [(transaction, float(index)) for index, transaction in enumerate(transactions)]
        nodes = process_transactions(entries, CONFIG)
        series = build_series(nodes)
        assert 0 <= series.depth <= len(raw_entries)
        # No node may appear twice in the series (acyclicity of the result).
        hashes = [node.transaction.hash for node in series]
        assert len(hashes) == len(set(hashes))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=60), st.randoms(use_true_random=False))
    def test_recursive_and_iterative_agree_on_random_chains(self, length, rng):
        prices = [rng.randint(1, 1000) for _ in range(length)]
        transactions = []
        mark = GENESIS_MARK
        for index, price in enumerate(prices):
            flag = HEAD_FLAG if index == 0 else SUCCESS_FLAG
            transactions.append(set_transaction(mark, price, index, flag))
            mark = compute_mark(mark, to_bytes32(price))
        entries = [(transaction, float(index)) for index, transaction in enumerate(transactions)]
        iterative = build_series(process_transactions(entries, CONFIG))
        recursive = build_series(process_transactions(entries, CONFIG), deepest_branch_recursive)
        assert iterative.marks() == recursive.marks()
