"""Tests for the Blockchain: building, validating, and importing blocks."""

import pytest

from repro.chain.chain import Blockchain
from repro.chain.errors import InvalidBlock, ValidationError
from repro.chain.genesis import GenesisConfig
from repro.chain.transaction import Transaction
from repro.crypto.addresses import address_from_label

from ..oracles import ValueTransferExecutor

ALICE = address_from_label("alice")
BOB = address_from_label("bob")
MINER = address_from_label("miner")


@pytest.fixture
def value_chain() -> Blockchain:
    genesis = GenesisConfig.for_labels(["alice", "bob", "miner"], balance=10**18)
    return Blockchain(ValueTransferExecutor(), genesis)


def transfer(nonce: int, value: int = 100) -> Transaction:
    return Transaction(sender=ALICE, nonce=nonce, to=BOB, value=value)


class TestBuildAndImport:
    def test_genesis_is_height_zero(self, value_chain):
        assert value_chain.height == 0
        assert value_chain.head.number == 0

    def test_build_and_add_block(self, value_chain):
        block, _ = value_chain.build_block([transfer(0)], miner=MINER, timestamp=13.0)
        value_chain.add_block(block)
        assert value_chain.height == 1
        assert value_chain.head is block
        assert value_chain.state.get_balance(BOB) == 10**18 + 100

    def test_build_does_not_mutate_chain_state(self, value_chain):
        value_chain.build_block([transfer(0)], miner=MINER, timestamp=13.0)
        assert value_chain.height == 0
        assert value_chain.state.get_balance(BOB) == 10**18

    def test_receipts_are_indexed_after_import(self, value_chain):
        transaction = transfer(0)
        block, _ = value_chain.build_block([transaction], miner=MINER, timestamp=13.0)
        value_chain.add_block(block)
        assert value_chain.transaction_is_committed(transaction.hash)
        receipt = value_chain.receipt_for(transaction.hash)
        assert receipt.success and receipt.block_number == 1

    def test_block_by_number_and_hash(self, value_chain):
        block, _ = value_chain.build_block([], miner=MINER, timestamp=13.0)
        value_chain.add_block(block)
        assert value_chain.block_by_number(1) is block
        assert value_chain.block_by_hash(block.hash) is block
        with pytest.raises(InvalidBlock):
            value_chain.block_by_number(7)

    def test_failed_transaction_included_but_no_state_change(self, value_chain):
        # Nonce 5 is wrong: the transaction fails but is still committed.
        bad = transfer(5)
        block, _ = value_chain.build_block([bad], miner=MINER, timestamp=13.0)
        value_chain.add_block(block)
        assert value_chain.transaction_is_committed(bad.hash)
        assert not value_chain.receipt_for(bad.hash).success
        assert value_chain.state.get_balance(BOB) == 10**18


class TestValidation:
    def test_peer_validates_and_accepts_block_from_another_peer(self, value_chain):
        genesis = GenesisConfig.for_labels(["alice", "bob", "miner"], balance=10**18)
        validator = Blockchain(ValueTransferExecutor(), genesis)
        block, _ = value_chain.build_block([transfer(0)], miner=MINER, timestamp=13.0)
        validator.add_block(block)
        assert validator.height == 1
        assert validator.state.state_root() == block.header.state_root

    def test_wrong_parent_rejected(self, value_chain):
        block, _ = value_chain.build_block([], miner=MINER, timestamp=13.0)
        value_chain.add_block(block)
        # A second block built before the first was imported points at genesis.
        stale, _ = Blockchain(
            ValueTransferExecutor(), GenesisConfig.for_labels(["alice", "bob", "miner"], balance=10**18)
        ).build_block([], miner=MINER, timestamp=26.0)
        with pytest.raises(InvalidBlock):
            value_chain.add_block(stale)

    def test_tampered_state_root_rejected(self, value_chain):
        from dataclasses import replace

        block, _ = value_chain.build_block([transfer(0)], miner=MINER, timestamp=13.0)
        tampered_header = replace(block.header, state_root=b"\xff" * 32)
        tampered = type(block)(
            header=tampered_header, transactions=block.transactions, receipts=block.receipts
        )
        with pytest.raises(ValidationError):
            value_chain.add_block(tampered)

    def test_tampered_transaction_data_rejected(self, value_chain):
        """A signed transaction whose calldata was modified fails block validation.

        This is the chain-level mechanism behind the paper's observation that
        RAA cannot be used to modify transaction inputs.
        """
        original = transfer(0)
        tampered_transaction = original.with_data(b"\x01\x02\x03")
        block, _ = value_chain.build_block([tampered_transaction], miner=MINER, timestamp=13.0)
        with pytest.raises(ValidationError):
            value_chain.add_block(block)

    def test_mismatched_body_rejected(self, value_chain):
        block, _ = value_chain.build_block([transfer(0)], miner=MINER, timestamp=13.0)
        forged = type(block)(header=block.header, transactions=[], receipts=[])
        with pytest.raises(InvalidBlock):
            value_chain.add_block(forged)
