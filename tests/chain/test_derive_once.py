"""Chain objects derive their bytes once — and the bytes are the documented ones.

A transaction RLP-encodes its canonical fields a single time and wraps that
body into the signing payload, the hash preimage and the wire form; a header
encodes the eleven fields around its timestamp once for both its hash and
its wire form; a block assembles its wire form once from the bytes its parts
already carry.  These tests write each formula out with plain ``rlp_encode``
over the field list, so the layout cannot drift with the caching, and check
that nothing cached survives onto an object it does not describe.
"""

from __future__ import annotations

import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain import wire
from repro.chain.apply_cache import BlockApplyCache
from repro.chain.block import Block, BlockHeader
from repro.chain.chain import Blockchain
from repro.chain.errors import ValidationError
from repro.chain.genesis import GenesisConfig
from repro.chain.receipt import LogEntry, Receipt, receipts_root
from repro.chain.transaction import TIMESTAMP_SCALE, Transaction
from repro.chain.trie import EMPTY_ROOT, ordered_trie_root
from repro.chain.wire import wire_cache_stats
from repro.contracts.sereth import SerethContract
from repro.crypto.addresses import address_from_label
from repro.crypto.keccak import keccak256
from repro.encoding.rlp import rlp_encode
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.net.peer import Peer
from repro.net.sim import Simulator

from ..oracles import ValueTransferExecutor, decode_block, decode_header, encode_block, encode_header, encode_receipt, encode_transaction
from .test_trie import indexed, trie_root

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
                encode_header(block.header),
                [encode_transaction(transaction) for transaction in block.transactions],
                [encode_receipt(receipt) for receipt in block.receipts],
            ]
        )
        assert encode_block(block) is block.wire, "one bytes object per block"

    def test_receipt_layout(self, block):
        for index, receipt in enumerate(block.receipts):
            assert (receipt.block_number, receipt.transaction_index) == (block.number, index)
            assert encode_receipt(receipt) == rlp_encode(
                [
                    receipt.transaction_hash,
                    1 if receipt.success else 0,
                    receipt.gas_used,
                    [[log.address, list(log.topics), log.data] for log in receipt.logs],
                    receipt.error.encode("utf-8") if receipt.error else b"",
                    receipt.return_data,
                    receipt.block_number,
                    receipt.transaction_index,
                ]
            )

    def test_pickle_keeps_block_hash_and_wire(self, block):
        expected_hash, expected_wire = block.hash, block.wire
        twin = decode_block(expected_wire)  # nothing derived on it yet
        for candidate in (block, twin):
            restored = pickle.loads(pickle.dumps(candidate))
            assert restored.header == block.header
            assert restored.hash == expected_hash
            assert restored.wire == expected_wire

    def test_encode_block_does_not_re_encode_or_touch_the_memo(self, block, monkeypatch):
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


byte_strings = st.binary(max_size=40)
small_ints = st.integers(min_value=0, max_value=2**64)
# Eighths of a second (below 2**53 microseconds) are exact in binary and at both integer
# scales, so the microsecond wire form round-trips them bit for bit.
timestamps = st.integers(min_value=0, max_value=2**32).map(lambda eighths: eighths / 8)
headers = st.builds(
    BlockHeader,
    parent_hash=byte_strings,
    number=small_ints,
    timestamp=timestamps,
    miner=byte_strings,
    state_root=byte_strings,
    transactions_root=byte_strings,
    receipts_root=byte_strings,
    difficulty=small_ints,
    gas_limit=small_ints,
    gas_used=small_ints,
    nonce=small_ints,
    extra_data=byte_strings,
)


def header_fields(header: BlockHeader, timestamp_scale: int) -> list:
    return [
        header.parent_hash,
        header.number,
        int(header.timestamp * timestamp_scale),
        header.miner,
        header.state_root,
        header.transactions_root,
        header.receipts_root,
        header.difficulty,
        header.gas_limit,
        header.gas_used,
        header.nonce,
        header.extra_data,
    ]


class TestHeaderBytes:
    @settings(max_examples=200, deadline=None)
    @given(header=headers, hash_first=st.booleans())
    def test_hash_and_wire_are_the_written_out_formulas(self, header, hash_first):
        expected_hash = keccak256(rlp_encode(header_fields(header, 1000)))
        expected_wire = rlp_encode(header_fields(header, TIMESTAMP_SCALE))
        # Either may be asked for first; each is derived once.
        for name in ("hash", "wire") if hash_first else ("wire", "hash"):
            getattr(header, name)
        assert header.hash == expected_hash
        assert encode_header(header) == expected_wire
        assert encode_header(header) is header.wire
        decoded = decode_header(expected_wire)
        assert decoded == header and decoded.hash == expected_hash

    def test_replace_rederives(self):
        header = BlockHeader(parent_hash=b"\x01" * 32, number=4, timestamp=52.0)
        assert header.hash and header.wire
        bumped = replace(header, number=5)
        assert bumped.hash == BlockHeader(parent_hash=b"\x01" * 32, number=5, timestamp=52.0).hash
        assert decode_header(bumped.wire).number == 5


class TestEmptyRootIsAConstant:
    def test_constant_is_the_formula(self):
        assert EMPTY_ROOT == keccak256(rlp_encode(b""))
        assert ordered_trie_root([]) == ordered_trie_root(()) == EMPTY_ROOT

    def test_importing_the_chain_hashes_nothing(self):
        probe = (
            "from repro.memo import memo_stats\n"
            "import repro.chain, repro.chain.wire, sys\n"
            "assert memo_stats()['keccak256']['misses'] == 0, memo_stats()\n"
            "assert 'repro.crypto.keccak_native' not in sys.modules\n"
        )
        subprocess.run([sys.executable, "-c", probe], check=True, timeout=60)


# -- sealed artefacts -------------------------------------------------------------------

log_entries = st.builds(
    LogEntry,
    address=st.binary(min_size=20, max_size=20),
    topics=st.lists(st.binary(min_size=32, max_size=32), max_size=3).map(tuple),
    data=byte_strings,
)
receipts = st.builds(
    Receipt,
    transaction_hash=st.binary(min_size=32, max_size=32),
    success=st.booleans(),
    gas_used=small_ints,
    logs=st.lists(log_entries, max_size=3),
    error=st.one_of(st.none(), st.text(max_size=20)),
    return_data=byte_strings,
    block_number=st.one_of(st.none(), small_ints),
    transaction_index=st.one_of(st.none(), st.integers(min_value=0, max_value=300)),
)


def receipt_consensus_fields(receipt: Receipt) -> list:
    return [
        receipt.transaction_hash,
        1 if receipt.success else 0,
        receipt.gas_used,
        [[log.address, list(log.topics), log.data] for log in receipt.logs],
    ]


def receipt_wire_fields(receipt: Receipt) -> list:
    return receipt_consensus_fields(receipt) + [
        receipt.error.encode("utf-8") if receipt.error else b"",
        receipt.return_data,
        receipt.block_number if receipt.block_number is not None else b"",
        receipt.transaction_index if receipt.transaction_index is not None else b"",
    ]


class TestSealedArtefacts:
    """Receipts, headers and blocks are sealed at construction: nothing can
    change a field after the bytes derived from it exist."""

    @pytest.fixture
    def block(self):
        config = GenesisConfig.for_labels(["alice", "bob", "miner"], balance=10**18)
        chain = Blockchain(ValueTransferExecutor(), config)
        transaction = Transaction(sender=ALICE, nonce=0, to=BOB, value=1)
        built, _ = chain.build_block([transaction], miner=MINER, timestamp=13.0)
        return built

    @pytest.mark.parametrize(
        "part, name, value",
        [
            ("receipt", "transaction_index", 7),
            ("receipt", "success", False),
            ("receipt", "_wire", b""),
            ("header", "number", 99),
            ("header", "hash", b"\x00" * 32),
            ("block", "transactions", []),
            ("block", "_wire", b""),
        ],
    )
    def test_every_part_refuses_mutation(self, block, part, name, value):
        target = {"receipt": block.receipts[0], "header": block.header, "block": block}[part]
        with pytest.raises(FrozenInstanceError):
            setattr(target, name, value)
        with pytest.raises(FrozenInstanceError):
            delattr(target, name)

    def test_built_receipts_are_stamped_at_construction(self, block):
        assert [(receipt.block_number, receipt.transaction_index, receipt.block_timestamp)
                for receipt in block.receipts] == [(1, 0, 13.0)]

    @settings(max_examples=100, deadline=None)
    @given(receipt=receipts)
    def test_receipt_encode_and_wire_are_the_written_out_formulas(self, receipt):
        assert receipt.encode() == rlp_encode(receipt_consensus_fields(receipt))
        assert receipt.wire == rlp_encode(receipt_wire_fields(receipt))
        assert receipt.wire is receipt.wire, "derived once"
        assert encode_receipt(receipt) is receipt.wire

    @settings(max_examples=50, deadline=None)
    @given(sealed=st.lists(receipts, max_size=20))
    def test_receipts_root_is_the_trie_oracle_over_the_written_out_leaves(self, sealed):
        leaves = [rlp_encode(receipt_consensus_fields(receipt)) for receipt in sealed]
        assert receipts_root(sealed) == trie_root(indexed(leaves))

    def test_a_gossiped_receipt_is_the_same_unchanged_object_on_every_peer(self):
        simulator = Simulator()
        network = Network(simulator, latency=ConstantLatency(0.05), seed=7)
        genesis = GenesisConfig.for_labels(["alice", "bob"], balance=10**18)
        peers = [network.add_peer(Peer(f"peer-{index}", genesis)) for index in range(3)]
        transaction = Transaction(sender=ALICE, nonce=0, to=BOB, value=5)
        peers[0].submit_transaction(transaction, now=0.0)
        simulator.run()
        block, _ = peers[0].chain.build_block([transaction], miner=ALICE, timestamp=1.0)
        receipt = block.receipts[0]
        before = (receipt.wire, receipt.encode(), repr(receipt))
        network.broadcast_block(peers[0], block)
        simulator.run()
        for peer in peers[1:]:
            assert peer.chain.head is block
            assert peer.chain.receipt_for(transaction.hash) is receipt
        assert (receipt.wire, receipt.encode(), repr(receipt)) == before
        assert receipt.wire is before[0], "no import re-derived its bytes"
