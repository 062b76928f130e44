"""Chain objects derive their bytes once — and the bytes are the documented ones.

A transaction RLP-encodes its canonical fields a single time and wraps that
body into the signing payload, the hash preimage and the wire form.  These
tests write each formula out with plain ``rlp_encode`` over the field list,
so the layout cannot drift with the caching, and check that nothing cached
survives onto an object it does not describe.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.chain import wire
from repro.chain.apply_cache import BlockApplyCache
from repro.chain.chain import Blockchain
from repro.chain.errors import ValidationError
from repro.chain.executor import ValueTransferExecutor
from repro.chain.genesis import GenesisConfig
from repro.chain.transaction import Transaction
from repro.chain.wire import decode_block, encode_block, encode_transaction, wire_cache_stats
from repro.contracts.sereth import SerethContract
from repro.crypto.addresses import address_from_label
from repro.crypto.keccak import keccak256
from repro.encoding.rlp import rlp_encode

ALICE = address_from_label("alice")
BOB = address_from_label("bob")
MINER = address_from_label("miner")

CASES = [
    dict(sender=ALICE, nonce=0, to=BOB),
    dict(sender=ALICE, nonce=7, to=None, value=0, data=b"\x00" * 60),
    dict(sender=BOB, nonce=2**40, to=ALICE, value=10**18, gas_price=0, gas_limit=8_000_000,
         data=bytes(range(256)), submitted_at=1234.567891),
    dict(sender=BOB, nonce=1, to=ALICE, value=0x7F, gas_price=0x80, data=b"\x7f", submitted_at=0.5),
]


def canonical_fields(transaction: Transaction) -> list:
    return [
        transaction.sender,
        transaction.nonce,
        transaction.to if transaction.to is not None else b"",
        transaction.value,
        transaction.gas_price,
        transaction.gas_limit,
        transaction.data,
    ]


@pytest.mark.parametrize("fields", CASES)
class TestWrittenOutFormulas:
    def test_signature(self, fields):
        transaction = Transaction(**fields)
        payload = rlp_encode(canonical_fields(transaction))
        assert transaction.signature == keccak256(b"repro/tx-signature/", transaction.sender, payload)
        assert transaction.signature_is_valid()

    def test_hash(self, fields):
        transaction = Transaction(**fields)
        preimage = rlp_encode(canonical_fields(transaction) + [transaction.signature])
        assert transaction.hash == keccak256(preimage)

    def test_wire_bytes(self, fields):
        transaction = Transaction(**fields)
        expected = rlp_encode(
            canonical_fields(transaction)
            + [transaction.signature, int(transaction.submitted_at * 1_000_000)]
        )
        assert encode_transaction(transaction) == expected
        assert encode_transaction(transaction) is transaction.wire, "one bytes object per transaction"


class TestNothingCachedOutlivesItsFields:
    def test_with_data_copy_derives_its_own_bytes_and_still_fails_the_check(self):
        original = Transaction(sender=ALICE, nonce=0, to=BOB, value=5, data=b"\x01")
        # Derive everything on the original first: none of it may leak.
        original_hash, original_wire = original.hash, original.wire
        assert original.signature_is_valid()
        tampered = original.with_data(b"\x02")
        assert tampered.signature == original.signature
        assert not tampered.signature_is_valid()
        assert tampered.hash != original_hash
        assert tampered.wire != original_wire
        assert tampered.hash == keccak256(rlp_encode(canonical_fields(tampered) + [tampered.signature]))
        # tests/chain/test_apply_cache.py and test_blockchain.py pin the
        # consequences: such a block is not apply-cached and is rejected.

    def test_tampered_transaction_rejected_after_its_bytes_were_derived(self):
        config = GenesisConfig.for_labels(["alice", "bob", "miner"], balance=10**18)
        cache = BlockApplyCache()
        chain = Blockchain(ValueTransferExecutor(), config, apply_cache=cache)
        tampered = Transaction(sender=ALICE, nonce=0, to=BOB, value=5).with_data(b"\xde\xad")
        assert tampered.hash and tampered.wire  # cached before the chain sees it
        block, _ = chain.build_block([tampered], miner=MINER, timestamp=13.0)
        assert cache.stats()["entries"] == 0
        with pytest.raises(ValidationError):
            chain.add_block(block)

    def test_replace_rederives(self):
        original = Transaction(sender=ALICE, nonce=0, to=BOB, value=5)
        assert original.hash
        bumped = replace(original, nonce=1, signature=b"")
        assert bumped.signature_is_valid()
        assert bumped.hash == Transaction(sender=ALICE, nonce=1, to=BOB, value=5).hash

    def test_pickle_keeps_hash_and_wire_bytes(self):
        transaction = Transaction(sender=ALICE, nonce=3, to=BOB, value=9, data=b"\xaa" * 40, submitted_at=2.5)
        expected_hash, expected_wire = transaction.hash, transaction.wire
        for candidate in (transaction, Transaction(sender=ALICE, nonce=3, to=BOB, value=9, data=b"\xaa" * 40,
                                                   submitted_at=2.5)):
            # Once with the derived attributes filled in, once before any were read.
            restored = pickle.loads(pickle.dumps(candidate))
            assert restored == transaction
            assert restored.hash == expected_hash
            assert restored.wire == expected_wire
            assert restored.signature_is_valid()

    def test_function_abi_selector_is_computed_once_and_pickles(self):
        abi = SerethContract.function_by_name("set").abi
        assert abi.signature == "set(bytes32[3])"
        assert abi.selector == keccak256(b"set(bytes32[3])")[:4]
        assert abi.selector is abi.selector
        assert pickle.loads(pickle.dumps(abi)).selector == abi.selector


class TestBlockEncodingReusesTransactionBytes:
    @pytest.fixture
    def block(self):
        config = GenesisConfig.for_labels(["alice", "bob", "miner"], balance=10**18)
        chain = Blockchain(ValueTransferExecutor(), config)
        transactions = [
            Transaction(sender=ALICE, nonce=0, to=BOB, value=1, submitted_at=1.25),
            Transaction(sender=BOB, nonce=0, to=ALICE, value=2, data=b"\x01" * 70, submitted_at=2.5),
        ]
        built, _ = chain.build_block(transactions, miner=MINER, timestamp=13.0)
        return built

    def test_block_round_trip(self, block):
        decoded = decode_block(encode_block(block))
        assert decoded.header == block.header and decoded.hash == block.hash
        assert decoded.transactions == block.transactions
        assert [transaction.wire for transaction in decoded.transactions] == [
            transaction.wire for transaction in block.transactions
        ]
        assert decoded.verify_roots()

    def test_layout_is_header_transactions_receipts(self, block):
        assert encode_block(block) == rlp_encode(
            [
                wire.encode_header(block.header),
                [encode_transaction(transaction) for transaction in block.transactions],
                [wire.encode_receipt(receipt) for receipt in block.receipts],
            ]
        )

    def test_encode_block_does_not_re_encode_or_touch_the_memo(self, block, monkeypatch):
        wire.clear_wire_cache()
        for transaction in block.transactions:
            wire.wire_encoding(transaction)  # what broadcast_transaction does
        before = wire_cache_stats()

        def no_second_encoding(*_args, **_kwargs):
            raise AssertionError("a transaction's fields were RLP-encoded again")

        monkeypatch.setattr("repro.chain.transaction.rlp_payload", no_second_encoding)
        payload = encode_block(block)
        assert wire_cache_stats() == before, "per-object bytes are neither hits nor misses"
        monkeypatch.undo()
        assert decode_block(payload).transactions == block.transactions
        wire.clear_wire_cache()
