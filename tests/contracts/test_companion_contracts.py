"""Tests for the companion contracts: TicketSale and Oracle."""

import pytest

from repro.chain import Blockchain, Transaction
from repro.chain.executor import BlockContext
from repro.contracts.oracle import OracleContract
from repro.contracts.ticket_sale import TicketSaleContract
from repro.crypto.addresses import address_from_label
from repro.crypto.keccak import keccak256
from repro.encoding.hexutil import to_bytes32

from ..conftest import ALICE, BOB, CAROL, MINER


def deploy_in_genesis(funded_genesis, code_name, owner, extra_storage=None, owner_slot=0):
    """Pre-deploy a contract, writing the owner into its owner/operator slot."""
    address = address_from_label(f"test-{code_name}")
    storage = {to_bytes32(owner_slot): to_bytes32(owner)}
    storage.update(extra_storage or {})
    funded_genesis.deploy_contract(address, code_name, storage=storage)
    return address


def commit(chain, transactions, timestamp=13.0):
    block, _ = chain.build_block(transactions, miner=MINER, timestamp=timestamp)
    chain.add_block(block)
    return block


def view(engine, chain, address, name, args, caller=ALICE):
    context = BlockContext(number=chain.height + 1, timestamp=50.0, miner=MINER)
    return engine.call(chain.state, address, name, args, caller=caller, block=context).values


class TestTicketSale:
    @pytest.fixture
    def sale(self, engine, funded_genesis):
        genesis_mark = keccak256(b"ticket-sale/genesis/", address_from_label("test-TicketSale"))
        address = deploy_in_genesis(
            funded_genesis,
            "TicketSale",
            ALICE,
            extra_storage={
                to_bytes32(1): genesis_mark,
                to_bytes32(3): to_bytes32(TicketSaleContract.INITIAL_INVENTORY),
            },
        )
        return Blockchain(engine, funded_genesis), address, genesis_mark

    def abi(self, name):
        return TicketSaleContract.function_by_name(name).abi

    def test_set_price_and_buy(self, sale, engine):
        chain, address, genesis_mark = sale
        set_price = Transaction(
            sender=ALICE, nonce=0, to=address,
            data=self.abi("set_price").encode_call([to_bytes32(0), genesis_mark, to_bytes32(50)]),
        )
        new_mark = keccak256(genesis_mark, to_bytes32(50))
        buy = Transaction(
            sender=BOB, nonce=0, to=address,
            data=self.abi("buy_tickets").encode_call([to_bytes32(0), new_mark, to_bytes32(50)], 3),
        )
        block = commit(chain, [set_price, buy])
        assert [receipt.success for receipt in block.receipts] == [True, True]
        assert view(engine, chain, address, "tickets_of", [BOB]) == (3,)
        mark, price, remaining = view(engine, chain, address, "sale_state", [])
        assert price == 50
        assert remaining == TicketSaleContract.INITIAL_INVENTORY - 3

    def test_only_organiser_sets_price(self, sale, engine):
        chain, address, genesis_mark = sale
        set_price = Transaction(
            sender=BOB, nonce=0, to=address,
            data=self.abi("set_price").encode_call([to_bytes32(0), genesis_mark, to_bytes32(50)]),
        )
        block = commit(chain, [set_price])
        assert not block.receipts[0].success

    def test_stale_mark_purchase_fails(self, sale, engine):
        chain, address, genesis_mark = sale
        set_price = Transaction(
            sender=ALICE, nonce=0, to=address,
            data=self.abi("set_price").encode_call([to_bytes32(0), genesis_mark, to_bytes32(50)]),
        )
        stale_buy = Transaction(
            sender=BOB, nonce=0, to=address,
            data=self.abi("buy_tickets").encode_call([to_bytes32(0), genesis_mark, to_bytes32(0)], 1),
        )
        block = commit(chain, [set_price, stale_buy])
        assert [receipt.success for receipt in block.receipts] == [True, False]

    def test_cannot_buy_more_than_inventory(self, sale, engine):
        chain, address, genesis_mark = sale
        set_price = Transaction(
            sender=ALICE, nonce=0, to=address,
            data=self.abi("set_price").encode_call([to_bytes32(0), genesis_mark, to_bytes32(1)]),
        )
        new_mark = keccak256(genesis_mark, to_bytes32(1))
        greedy = Transaction(
            sender=BOB, nonce=0, to=address,
            data=self.abi("buy_tickets").encode_call(
                [to_bytes32(0), new_mark, to_bytes32(1)], TicketSaleContract.INITIAL_INVENTORY + 1
            ),
        )
        block = commit(chain, [set_price, greedy])
        assert [receipt.success for receipt in block.receipts] == [True, False]


class TestOracleContract:
    @pytest.fixture
    def oracle(self, engine, funded_genesis):
        address = deploy_in_genesis(funded_genesis, "Oracle", ALICE)
        return Blockchain(engine, funded_genesis), address

    def abi(self, name):
        return OracleContract.function_by_name(name).abi

    def test_request_then_answer_round_trip(self, oracle, engine):
        chain, address = oracle
        request = Transaction(
            sender=BOB, nonce=0, to=address, data=self.abi("request").encode_call(to_bytes32(b"price"))
        )
        commit(chain, [request])
        answered, _ = view(engine, chain, address, "read_answer", [0], caller=BOB)
        assert answered is False
        answer = Transaction(
            sender=ALICE, nonce=0, to=address, data=self.abi("answer").encode_call(0, to_bytes32(123))
        )
        commit(chain, [answer], timestamp=26.0)
        answered, value = view(engine, chain, address, "read_answer", [0], caller=BOB)
        assert answered is True
        assert value == to_bytes32(123)

    def test_only_operator_can_answer(self, oracle, engine):
        chain, address = oracle
        commit(chain, [
            Transaction(sender=BOB, nonce=0, to=address, data=self.abi("request").encode_call(to_bytes32(b"q"))),
        ])
        rogue = Transaction(
            sender=CAROL, nonce=0, to=address, data=self.abi("answer").encode_call(0, to_bytes32(1))
        )
        block = commit(chain, [rogue], timestamp=26.0)
        assert not block.receipts[0].success

    def test_unknown_request_cannot_be_answered(self, oracle, engine):
        chain, address = oracle
        answer = Transaction(
            sender=ALICE, nonce=0, to=address, data=self.abi("answer").encode_call(9, to_bytes32(1))
        )
        block = commit(chain, [answer])
        assert not block.receipts[0].success

    def test_double_answer_rejected(self, oracle, engine):
        chain, address = oracle
        commit(chain, [
            Transaction(sender=BOB, nonce=0, to=address, data=self.abi("request").encode_call(to_bytes32(b"q"))),
            Transaction(sender=ALICE, nonce=0, to=address, data=self.abi("answer").encode_call(0, to_bytes32(1))),
        ])
        again = Transaction(
            sender=ALICE, nonce=1, to=address, data=self.abi("answer").encode_call(0, to_bytes32(2))
        )
        block = commit(chain, [again], timestamp=26.0)
        assert not block.receipts[0].success

    def test_request_ids_increment(self, oracle, engine):
        chain, address = oracle
        block = commit(chain, [
            Transaction(sender=BOB, nonce=0, to=address, data=self.abi("request").encode_call(to_bytes32(b"a"))),
            Transaction(sender=BOB, nonce=1, to=address, data=self.abi("request").encode_call(to_bytes32(b"b"))),
        ])
        assert all(receipt.success for receipt in block.receipts)
        # Second request id decoded from the return data should be 1.
        assert self.abi("request").decode_result(block.receipts[1].return_data) == [1]
