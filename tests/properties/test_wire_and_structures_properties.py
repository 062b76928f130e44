"""Property-based tests for the wire codec."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain.transaction import Transaction
from repro.crypto.addresses import address_from_label

from ..oracles import decode_transaction, encode_transaction

SENDERS = [address_from_label(f"wire-sender-{index}") for index in range(3)]
RECIPIENTS = [address_from_label(f"wire-recipient-{index}") for index in range(3)]


transactions = st.builds(
    Transaction,
    sender=st.sampled_from(SENDERS),
    nonce=st.integers(min_value=0, max_value=2**32),
    to=st.one_of(st.none(), st.sampled_from(RECIPIENTS)),
    value=st.integers(min_value=0, max_value=10**18),
    gas_price=st.integers(min_value=0, max_value=1_000),
    gas_limit=st.integers(min_value=21_000, max_value=10_000_000),
    data=st.binary(max_size=200),
    submitted_at=st.floats(min_value=0.0, max_value=10_000.0, allow_nan=False),
)


class TestWireProperties:
    @settings(max_examples=80, deadline=None)
    @given(transactions)
    def test_transaction_round_trip_preserves_identity(self, transaction):
        decoded = decode_transaction(encode_transaction(transaction))
        assert decoded.hash == transaction.hash
        assert decoded.signature_is_valid()
        assert decoded.data == transaction.data
        assert decoded.to == transaction.to

    @settings(max_examples=50, deadline=None)
    @given(transactions, transactions)
    def test_distinct_transactions_have_distinct_encodings(self, first, second):
        if first.hash == second.hash:
            return
        assert encode_transaction(first) != encode_transaction(second)

