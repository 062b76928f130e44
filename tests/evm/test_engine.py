"""Tests for the execution engine: dispatch, gas, rollback, creation, static calls."""

import pytest

from repro.chain import Blockchain, GenesisConfig, Transaction
from repro.chain.executor import BlockContext
from repro.chain.gas import GasSchedule
from repro.contracts.simple_storage import SimpleStorageContract
from repro.crypto.addresses import address_from_label, contract_address
from repro.encoding.hexutil import to_bytes32
from repro.evm import ExecutionEngine, encode_deployment

ALICE = address_from_label("alice")
BOB = address_from_label("bob")
MINER = address_from_label("miner")

SET_VALUE = SimpleStorageContract.function_by_name("set_value").abi
GET_VALUE = SimpleStorageContract.function_by_name("get_value").abi
SET_IF_OWNER = SimpleStorageContract.function_by_name("set_if_owner").abi


@pytest.fixture
def deployed(engine, funded_genesis):
    """A chain with SimpleStorage deployed by alice; returns (chain, address)."""
    chain = Blockchain(engine, funded_genesis)
    deploy = Transaction(sender=ALICE, nonce=0, to=None, data=encode_deployment("SimpleStorage"))
    block, _ = chain.build_block([deploy], miner=MINER, timestamp=10.0)
    chain.add_block(block)
    return chain, contract_address(ALICE, 0)


class TestDeployment:
    def test_contract_account_created(self, deployed):
        chain, address = deployed
        assert chain.state.get_code(address) == "SimpleStorage"

    def test_constructor_ran(self, deployed, engine):
        chain, address = deployed
        context = BlockContext(number=2, timestamp=20.0, miner=MINER)
        # Constructor stored the owner (alice) in slot 0.
        value = chain.state.get_storage(address, to_bytes32(0))
        assert value[-20:] == ALICE

    def test_unknown_code_name_fails_but_is_included(self, engine, funded_genesis):
        chain = Blockchain(engine, funded_genesis)
        deploy = Transaction(sender=ALICE, nonce=0, to=None, data=encode_deployment("NoSuchContract"))
        block, _ = chain.build_block([deploy], miner=MINER, timestamp=10.0)
        chain.add_block(block)
        receipt = chain.receipt_for(deploy.hash)
        assert receipt is not None and not receipt.success

    def test_malformed_creation_data_fails(self, engine, funded_genesis):
        chain = Blockchain(engine, funded_genesis)
        deploy = Transaction(sender=ALICE, nonce=0, to=None, data=b"\x01\x02\x03")
        block, _ = chain.build_block([deploy], miner=MINER, timestamp=10.0)
        chain.add_block(block)
        assert not chain.receipt_for(deploy.hash).success


class TestMessageCalls:
    def test_storage_write_via_transaction(self, deployed):
        chain, address = deployed
        call = Transaction(sender=BOB, nonce=0, to=address, data=SET_VALUE.encode_call(42))
        block, _ = chain.build_block([call], miner=MINER, timestamp=20.0)
        chain.add_block(block)
        assert chain.receipt_for(call.hash).success
        assert chain.state.get_storage(address, to_bytes32(1)) == to_bytes32(42)

    def test_revert_rolls_back_and_reports_reason(self, deployed):
        chain, address = deployed
        # Bob is not the owner, so set_if_owner reverts.
        call = Transaction(sender=BOB, nonce=0, to=address, data=SET_IF_OWNER.encode_call(7))
        block, _ = chain.build_block([call], miner=MINER, timestamp=20.0)
        chain.add_block(block)
        receipt = chain.receipt_for(call.hash)
        assert not receipt.success
        assert "owner" in receipt.error
        assert chain.state.get_storage(address, to_bytes32(1)) == to_bytes32(0)

    def test_failed_transaction_still_consumes_nonce_and_gas(self, deployed):
        chain, address = deployed
        balance_before = chain.state.get_balance(BOB)
        call = Transaction(sender=BOB, nonce=0, to=address, data=SET_IF_OWNER.encode_call(7))
        block, _ = chain.build_block([call], miner=MINER, timestamp=20.0)
        chain.add_block(block)
        assert chain.state.get_nonce(BOB) == 1
        assert chain.state.get_balance(BOB) < balance_before

    def test_unknown_selector_fails(self, deployed):
        chain, address = deployed
        call = Transaction(sender=BOB, nonce=0, to=address, data=b"\xde\xad\xbe\xef" + b"\x00" * 32)
        block, _ = chain.build_block([call], miner=MINER, timestamp=20.0)
        chain.add_block(block)
        assert not chain.receipt_for(call.hash).success

    def test_view_function_cannot_be_called_by_transaction(self, deployed):
        chain, address = deployed
        call = Transaction(sender=BOB, nonce=0, to=address, data=GET_VALUE.encode_call())
        block, _ = chain.build_block([call], miner=MINER, timestamp=20.0)
        chain.add_block(block)
        receipt = chain.receipt_for(call.hash)
        assert not receipt.success

    def test_plain_value_transfer_to_eoa(self, deployed):
        chain, _ = deployed
        bob_before = chain.state.get_balance(BOB)
        transfer = Transaction(sender=ALICE, nonce=1, to=BOB, value=1234)
        block, _ = chain.build_block([transfer], miner=MINER, timestamp=20.0)
        chain.add_block(block)
        assert chain.state.get_balance(BOB) == bob_before + 1234

    def test_wrong_nonce_rejected_without_consuming_nonce(self, deployed):
        chain, address = deployed
        call = Transaction(sender=BOB, nonce=9, to=address, data=SET_VALUE.encode_call(1))
        block, _ = chain.build_block([call], miner=MINER, timestamp=20.0)
        chain.add_block(block)
        assert not chain.receipt_for(call.hash).success
        assert chain.state.get_nonce(BOB) == 0

    def test_insufficient_balance_rejected(self, engine, funded_genesis):
        poor = address_from_label("penniless")
        chain = Blockchain(engine, funded_genesis)
        transfer = Transaction(sender=poor, nonce=0, to=BOB, value=1)
        block, _ = chain.build_block([transfer], miner=MINER, timestamp=20.0)
        chain.add_block(block)
        assert not chain.receipt_for(transfer.hash).success


class TestCustomGasSchedule:
    def test_intrinsic_gas_is_priced_by_the_engines_schedule(self, funded_genesis):
        """One engine, one price list: the intrinsic charge uses the same
        schedule as execution metering, not the module default."""
        schedule = GasSchedule(tx_base=50_000, calldata_nonzero_byte=100)
        chain = Blockchain(ExecutionEngine(gas_schedule=schedule), funded_genesis)
        transfer = Transaction(sender=ALICE, nonce=0, to=BOB, data=b"\x01\x00")
        assert transfer.intrinsic_gas() == 21_000 + 16 + 4
        assert transfer.intrinsic_gas(schedule) == 50_000 + 100 + 4
        block, _ = chain.build_block([transfer], miner=MINER, timestamp=10.0)
        chain.add_block(block)
        receipt = chain.receipt_for(transfer.hash)
        assert receipt.success and receipt.gas_used == 50_104

    def test_intrinsic_cost_above_the_limit_fails_under_the_custom_schedule_only(self, funded_genesis):
        transfer = Transaction(sender=ALICE, nonce=0, to=BOB, value=1, gas_limit=30_000)
        for schedule, succeeds in ((None, True), (GasSchedule(tx_base=50_000), False)):
            chain = Blockchain(ExecutionEngine(gas_schedule=schedule), funded_genesis)
            block, _ = chain.build_block([transfer], miner=MINER, timestamp=10.0)
            chain.add_block(block)
            assert chain.receipt_for(transfer.hash).success is succeeds


class TestStaticCalls:
    def test_view_call_returns_decoded_values(self, deployed, engine):
        chain, address = deployed
        write = Transaction(sender=BOB, nonce=0, to=address, data=SET_VALUE.encode_call(99))
        block, _ = chain.build_block([write], miner=MINER, timestamp=20.0)
        chain.add_block(block)
        context = BlockContext(number=3, timestamp=30.0, miner=MINER)
        result = engine.call(chain.state, address, "get_value", [], caller=BOB, block=context)
        assert result.values == (99,)

    def test_view_call_does_not_change_state(self, deployed, engine):
        chain, address = deployed
        context = BlockContext(number=3, timestamp=30.0, miner=MINER)
        root_before = chain.state.state_root()
        engine.call(chain.state, address, "get_value", [], caller=BOB, block=context)
        assert chain.state.state_root() == root_before

    def test_calling_mutating_function_statically_is_rejected(self, deployed, engine):
        chain, address = deployed
        context = BlockContext(number=3, timestamp=30.0, miner=MINER)
        with pytest.raises(ValueError):
            engine.call(chain.state, address, "set_value", [5], caller=BOB, block=context)

    def test_call_to_missing_contract_rejected(self, deployed, engine):
        chain, _ = deployed
        context = BlockContext(number=3, timestamp=30.0, miner=MINER)
        with pytest.raises(ValueError):
            engine.call(chain.state, BOB, "get_value", [], caller=ALICE, block=context)
