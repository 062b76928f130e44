"""HMS views over pools of every size and Sereth share (paper Section III-C).

"Due to this filtering only a small percentage of the TxPool requires
processing": the view walks only the Sereth ``set`` series in a pool of
mixed traffic, so its depth is the series length whatever else the pool
holds.  Also the substrate a view rests on: a 64-byte keccak digest and a
50-transaction Sereth block that executes and validates in full.
"""

from __future__ import annotations

import pytest

from repro.chain import Blockchain, GenesisConfig, Transaction
from repro.contracts.sereth import SerethContract, genesis_storage, initial_mark
from repro.core.hms.fpv import HEAD_FLAG, SUCCESS_FLAG, compute_mark, fpv_to_words
from repro.core.hms.hash_mark_set import HashMarkSet
from repro.core.hms.process import HMSConfig
from repro.crypto.addresses import address_from_label
from repro.crypto.keccak import Keccak256
from repro.encoding.hexutil import to_bytes32
from repro.evm import ExecutionEngine

OWNER = address_from_label("owner")
OTHER = address_from_label("other")
CONTRACT = address_from_label("sereth-exchange")
SET_ABI = SerethContract.function_by_name("set").abi
CONFIG = HMSConfig(contract_address=CONTRACT, set_selector=SET_ABI.selector)


def set_series(count: int):
    """``count`` chained Sereth ``set`` transactions from the owner."""
    mark = initial_mark(CONTRACT)
    transactions = []
    for index in range(count):
        flag = HEAD_FLAG if index == 0 else SUCCESS_FLAG
        calldata = SET_ABI.encode_call(fpv_to_words(flag, mark, 100 + index))
        transactions.append(Transaction(sender=OWNER, nonce=index, to=CONTRACT, data=calldata))
        mark = compute_mark(mark, to_bytes32(100 + index))
    return transactions


def build_pool(total: int, sereth_fraction: float):
    """A pool with ``total`` entries of which ``sereth_fraction`` are Sereth sets."""
    sereth = set_series(int(total * sereth_fraction))
    transfers = [
        Transaction(sender=OTHER, nonce=index, to=OTHER, value=1) for index in range(total - len(sereth))
    ]
    return [(transaction, float(index)) for index, transaction in enumerate(sereth + transfers)]


@pytest.mark.parametrize("pool_size", [50, 200, 800])
def test_view_depth_is_the_series_whatever_the_pool_size(pool_size):
    view = HashMarkSet(CONFIG).read_uncommitted(build_pool(pool_size, sereth_fraction=0.2))
    assert view.source == "series"
    assert view.depth == int(pool_size * 0.2)


@pytest.mark.parametrize("sereth_fraction", [0.05, 0.5, 1.0])
def test_view_depth_follows_the_sereth_share(sereth_fraction):
    view = HashMarkSet(CONFIG).read_uncommitted(build_pool(400, sereth_fraction))
    assert view.depth == int(400 * sereth_fraction)


def test_keccak256_of_a_64_byte_message_is_32_bytes():
    assert len(Keccak256(bytes(range(64))).digest()) == 32


def test_a_50_set_block_executes_and_validates():
    genesis = GenesisConfig.for_labels(["owner", "miner"])
    genesis.deploy_contract(CONTRACT, "Sereth", storage=genesis_storage(OWNER, CONTRACT))
    producer = Blockchain(ExecutionEngine(), genesis)
    block, _ = producer.build_block(set_series(50), miner=address_from_label("miner"), timestamp=13.0)
    Blockchain(ExecutionEngine(), genesis).add_block(block)
    assert block.successful_transaction_count() == 50
