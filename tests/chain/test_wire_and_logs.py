"""Tests for the wire codec."""

import pytest

from repro.chain import Blockchain, GenesisConfig, Transaction
from repro.contracts.simple_storage import SimpleStorageContract
from repro.crypto.addresses import address_from_label, contract_address
from repro.crypto.keccak import keccak256
from repro.evm import ExecutionEngine, encode_deployment

from ..oracles import WireDecodingError, decode_block, decode_header, decode_receipt, decode_transaction, encode_block, encode_header, encode_receipt, encode_transaction

ALICE = address_from_label("alice")
BOB = address_from_label("bob")
MINER = address_from_label("miner")


class TestTransactionWire:
    def test_round_trip_preserves_hash_and_signature(self):
        transaction = Transaction(
            sender=ALICE, nonce=3, to=BOB, value=7, gas_price=2, gas_limit=90_000,
            data=b"\x01\x02\x03", submitted_at=4.5,
        )
        decoded = decode_transaction(encode_transaction(transaction))
        assert decoded.hash == transaction.hash
        assert decoded.signature == transaction.signature
        assert decoded.signature_is_valid()
        assert decoded.submitted_at == pytest.approx(4.5)

    def test_contract_creation_round_trip(self):
        transaction = Transaction(sender=ALICE, nonce=0, to=None, data=b"\x09" * 40)
        decoded = decode_transaction(encode_transaction(transaction))
        assert decoded.to is None
        assert decoded.is_contract_creation

    def test_tampering_with_the_wire_payload_is_detectable(self):
        transaction = Transaction(sender=ALICE, nonce=0, to=BOB, value=1, data=b"\x01\x02")
        payload = bytearray(encode_transaction(transaction))
        payload[-40] ^= 0xFF  # flip a byte inside the signature/data region
        try:
            decoded = decode_transaction(bytes(payload))
        except WireDecodingError:
            return
        assert not decoded.signature_is_valid() or decoded.hash != transaction.hash

    def test_malformed_payload_rejected(self):
        with pytest.raises(WireDecodingError):
            decode_transaction(b"\x01\x02\x03")


class TestHeaderReceiptBlockWire:
    def build_block(self):
        engine = ExecutionEngine()
        chain = Blockchain(engine, GenesisConfig.for_labels(["alice", "bob", "miner"]))
        deploy = Transaction(sender=ALICE, nonce=0, to=None, data=encode_deployment("SimpleStorage"))
        set_value = Transaction(
            sender=BOB, nonce=0, to=contract_address(ALICE, 0),
            data=SimpleStorageContract.function_by_name("set_value").abi.encode_call(9),
        )
        block, _ = chain.build_block([deploy, set_value], miner=MINER, timestamp=13.0)
        return block

    def test_header_round_trip_preserves_hash(self):
        block = self.build_block()
        decoded = decode_header(encode_header(block.header))
        assert decoded.hash == block.header.hash

    def test_receipt_round_trip(self):
        block = self.build_block()
        for receipt in block.receipts:
            decoded = decode_receipt(encode_receipt(receipt))
            assert decoded.success == receipt.success
            assert decoded.gas_used == receipt.gas_used
            assert decoded.encode() == receipt.encode()
            assert len(decoded.logs) == len(receipt.logs)
        # set_value's receipt carries the contract's ValueChanged event.
        (log,) = block.receipts[1].logs
        assert log.address == contract_address(ALICE, 0)
        assert list(log.topics) == [keccak256(b"ValueChanged(uint256)")]

    def test_block_round_trip_validates_on_a_fresh_peer(self):
        block = self.build_block()
        decoded = decode_block(encode_block(block))
        assert decoded.hash == block.hash
        assert decoded.verify_roots()
        validator = Blockchain(ExecutionEngine(), GenesisConfig.for_labels(["alice", "bob", "miner"]))
        validator.add_block(decoded)
        assert validator.height == 1

    def test_malformed_block_rejected(self):
        with pytest.raises(WireDecodingError):
            decode_block(encode_header(self.build_block().header))

