"""The incremental HMS view equals a from-scratch view, always.

``HashMarkSet.read_uncommitted`` keeps what its last pass derived (per-entry
classification, the linked series, the whole view while the pool version and
committed AMV are unchanged).  A random walk over every pool mutation,
interleaved with head advances, checks after each step that the provider's
answer is field-for-field the one a fresh ``HashMarkSet`` computes from the
materialised pool — and that ``TxPool.version`` moves exactly when the pool
does.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import repro.contracts  # noqa: F401  (registers the shipped contracts)
import repro.core.hms.hash_mark_set as hash_mark_set_module
from repro.chain import GenesisConfig, Transaction
from repro.contracts.sereth import SerethContract, genesis_storage
from repro.core.hms.fpv import BUY_FLAG, HEAD_FLAG, SUCCESS_FLAG, fpv_to_words
from repro.core.hms.hash_mark_set import HashMarkSet
from repro.core.hms.process import HMSConfig
from repro.core.hms.series import deepest_branch_iterative
from repro.crypto.addresses import address_from_label
from repro.net.peer import SERETH_CLIENT, Peer

from ..oracles import deepest_branch_recursive

SENDERS = [address_from_label(label) for label in ("alice", "bob", "carol")]
MINER = address_from_label("miner")
SERETH_ADDRESS = address_from_label("sereth-exchange")
SET_ABI = SerethContract.function_by_name("set").abi
BUY_ABI = SerethContract.function_by_name("buy").abi
CONFIG = HMSConfig(contract_address=SERETH_ADDRESS, set_selector=SET_ABI.selector)


def sereth_peer() -> Peer:
    genesis = GenesisConfig.for_labels(["alice", "bob", "carol", "miner"])
    genesis.deploy_contract(SERETH_ADDRESS, "Sereth", storage=genesis_storage(SENDERS[0], SERETH_ADDRESS))
    peer = Peer("walker", genesis, client_kind=SERETH_CLIENT)
    peer.install_hms(SERETH_ADDRESS, SET_ABI.selector)
    return peer


def set_transaction(sender, nonce, flag, previous_mark, price, gas_price=1) -> Transaction:
    data = SET_ABI.encode_call(fpv_to_words(flag, previous_mark, price))
    return Transaction(sender=sender, nonce=nonce, to=SERETH_ADDRESS, data=data, gas_price=gas_price)


def buy_transaction(sender, nonce, mark, price) -> Transaction:
    data = BUY_ABI.encode_call(fpv_to_words(BUY_FLAG, mark, price))
    return Transaction(sender=sender, nonce=nonce, to=SERETH_ADDRESS, data=data)


def view_fields(view) -> tuple:
    return (
        view.amv,
        view.source,
        view.flag_for_next,
        [node.transaction.hash for node in view.series.nodes],
        view.pool_size,
        view.filtered_size,
    )


class Walk:
    """One peer, its pool and provider, and the moves the walk can make."""

    def __init__(self, recursive: bool) -> None:
        self.peer = sereth_peer()
        self.provider = self.peer.hms_provider(SERETH_ADDRESS)
        self.search = deepest_branch_recursive if recursive else deepest_branch_iterative
        self.provider.hms.search = self.search
        self.now = 0.0
        self.marks = []  # every mark a set ever chained from or produced: fork material

    @property
    def pool(self):
        return self.peer.pool

    def tick(self) -> float:
        self.now += 0.5
        return self.now

    def pooled(self, pick: int):
        entries = self.pool.entries()
        return entries[pick % len(entries)] if entries else None

    # -- moves: each returns what it expects of ``version`` ("bump" / "same" / None) --

    def add_successor_set(self, pick, price):
        view = self.provider.view()
        sender = SENDERS[pick % 3]
        transaction = set_transaction(
            sender, self.peer.next_nonce(sender), view.flag_for_next, view.mark, price
        )
        self.marks.append(view.mark)
        assert self.pool.add(transaction, self.tick())
        return "bump"

    def add_forking_set(self, pick, price):
        sender = SENDERS[pick % 3]
        previous = self.marks[pick % len(self.marks)] if self.marks else self.provider.committed_amv().mark
        flag = (HEAD_FLAG, SUCCESS_FLAG, BUY_FLAG)[price % 3]  # BUY_FLAG: a set PROCESS rejects
        assert self.pool.add(
            set_transaction(sender, self.peer.next_nonce(sender), flag, previous, price), self.tick()
        )
        return "bump"

    def add_buy(self, pick, _price):
        view = self.provider.view()
        sender = SENDERS[pick % 3]
        assert self.pool.add(
            buy_transaction(sender, self.peer.next_nonce(sender), view.mark, view.value), self.tick()
        )
        return "bump"

    def add_foreign(self, pick, price):
        sender = SENDERS[pick % 3]
        transfer = Transaction(sender=sender, nonce=self.peer.next_nonce(sender), to=MINER, value=price)
        assert self.pool.add(transfer, self.tick())
        return "bump"

    def replace_same_nonce(self, pick, price):
        entry = self.pooled(pick)
        if entry is None:
            return None
        old = entry.transaction
        replacement = set_transaction(
            old.sender, old.nonce, SUCCESS_FLAG, self.provider.view().mark, price, gas_price=old.gas_price + 1
        )
        assert self.pool.add(replacement, self.tick())
        assert old.hash not in self.pool
        return "bump"

    def rejected_add(self, pick, price):
        entry = self.pooled(pick)
        if entry is None:
            return None
        old = entry.transaction
        assert not self.pool.add(old, self.tick()), "a known hash is not re-admitted"
        underpriced = set_transaction(old.sender, old.nonce, HEAD_FLAG, old.hash, price, gas_price=old.gas_price)
        assert not self.pool.add(underpriced, self.tick()), "same nonce needs a higher gas price"
        assert self.pool.remove(b"\x00" * 32) is None
        return "same"

    def remove_one(self, pick, _price):
        entry = self.pooled(pick)
        if entry is None:
            return None
        assert self.pool.remove(entry.hash) is entry
        return "bump"

    def mine(self, pick, _price):
        """Head advance through the peer: remove_committed + drop_stale."""
        executable = self.pool.executable_by_sender(self.peer.chain.state)
        ordered = [
            entry.transaction
            for index, queue in enumerate(executable.values())
            for entry in queue[: (pick >> index) % 3]  # a gapless prefix per sender, often empty
        ]
        block, _ = self.peer.chain.build_block(ordered, miner=MINER, timestamp=self.tick())
        assert self.peer.receive_block(block)
        return None

    def stale_then_drop(self, pick, price):
        sender = SENDERS[pick % 3]
        account_nonce = self.peer.chain.state.get_nonce(sender)
        if account_nonce == 0:
            return None
        stale = Transaction(sender=sender, nonce=account_nonce - 1, to=MINER, value=price, gas_price=10**6)
        if not self.pool.add(stale, self.tick()):
            return None
        assert self.pool.drop_stale(self.peer.chain.state) >= 1
        return "bump"

    def clear(self, _pick, _price):
        self.pool.clear()
        return "bump"

    MOVES = (
        add_successor_set, add_successor_set, add_forking_set, add_buy, add_foreign,
        replace_same_nonce, rejected_add, remove_one, mine, mine, stale_then_drop, clear,
    )

    # -- the invariant ---------------------------------------------------------------

    def check(self) -> None:
        view = self.provider.view()
        fresh = HashMarkSet(CONFIG, self.search).read_uncommitted(
            self.pool.transactions_with_arrival(), self.provider.committed_amv()
        )
        assert view_fields(view) == view_fields(fresh)
        assert self.provider.view() is view, "no mutation in between: the same view object"
        assert len(self.provider.hms._classified) == len(self.pool), "memo pruned to the live pool"


steps = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(Walk.MOVES) - 1),
        st.integers(min_value=0, max_value=2**16),
        st.integers(min_value=1, max_value=2**16),
    ),
    max_size=45,
)


@pytest.mark.parametrize("recursive", [False, True])
@settings(max_examples=40, deadline=None)
@given(steps)
def test_incremental_view_equals_from_scratch_view(recursive, walk_steps):
    walk = Walk(recursive)
    walk.check()
    for move, pick, price in walk_steps:
        contents = walk.pool.transactions_with_arrival()
        version = walk.pool.version
        expected = Walk.MOVES[move](walk, pick, price)
        if expected == "bump":
            assert walk.pool.version > version
        elif expected == "same":
            assert walk.pool.version == version
        if walk.pool.transactions_with_arrival() != contents:
            assert walk.pool.version > version, "every mutation moves the version"
        assert walk.pool.version >= version
        walk.check()


class TestWhatIsReused:
    def test_each_entry_is_classified_once_and_buys_do_not_relink(self, monkeypatch):
        walk = Walk(recursive=False)
        classified = []
        real = hash_mark_set_module.classify_transaction

        def counting(transaction, arrival_time, config):
            classified.append(transaction.hash)
            return real(transaction, arrival_time, config)

        monkeypatch.setattr(hash_mark_set_module, "classify_transaction", counting)
        for price in (10, 11, 12):
            walk.add_successor_set(0, price)
            walk.provider.view()
        with_sets = walk.provider.view()
        assert with_sets.depth == 3
        walk.add_buy(1, 0)
        with_buy = walk.provider.view()
        assert with_buy is not with_sets and with_buy.pool_size == 4
        assert with_buy.series is with_sets.series, "the set-node list did not change"
        walk.provider.view()
        assert sorted(classified) == sorted(walk.pool._entries), "four entries, four classifications"

    def test_mark_then_get_is_one_view(self, monkeypatch):
        from repro.core.hms import series as series_module

        walk = Walk(recursive=False)
        walk.add_successor_set(0, 10)
        builds = []
        real = series_module.build_series
        monkeypatch.setattr(
            hash_mark_set_module, "build_series", lambda *a, **k: builds.append(1) or real(*a, **k)
        )
        caller = SENDERS[1]
        mark = walk.peer.call_contract(SERETH_ADDRESS, "mark", [fpv_to_words(0, 0, 0)], caller=caller)
        value = walk.peer.call_contract(SERETH_ADDRESS, "get", [fpv_to_words(0, 0, 0)], caller=caller)
        view = walk.provider.view()
        assert (mark.values[0], value.values[0]) == (view.mark, view.value)
        assert walk.provider.requests_served == 2
        assert len(builds) == 1

    def test_committed_amv_is_part_of_the_key(self):
        walk = Walk(recursive=False)
        hms = walk.provider.hms
        first = hms.read_uncommitted(walk.pool, committed=walk.provider.committed_amv())
        assert hms.read_uncommitted(walk.pool, committed=walk.provider.committed_amv()) is first
        assert hms.read_uncommitted(walk.pool, committed=None).source == "empty"
        assert hms.read_uncommitted(walk.pool, committed=first.amv).source == "committed"

    def test_plain_iterables_are_always_read_afresh(self):
        walk = Walk(recursive=False)
        walk.add_successor_set(0, 10)
        hms = HashMarkSet(CONFIG)
        pairs = walk.pool.transactions_with_arrival()
        first, second = hms.read_uncommitted(pairs), hms.read_uncommitted(iter(pairs))
        assert first is not second
        assert view_fields(first) == view_fields(second)

    def test_a_different_pool_at_the_same_version_is_not_mistaken(self):
        walk, other = Walk(recursive=False), Walk(recursive=False)
        walk.add_successor_set(0, 10)
        other.add_foreign(0, 10)
        assert walk.pool.version == other.pool.version
        hms = walk.provider.hms
        committed = walk.provider.committed_amv()
        assert hms.read_uncommitted(walk.pool, committed).source == "series"
        assert hms.read_uncommitted(other.pool, committed).source == "committed"

    def test_restart_drops_the_memo_with_the_provider(self):
        walk = Walk(recursive=False)
        walk.add_successor_set(0, 10)
        before = walk.provider
        assert before.view().source == "series"
        walk.peer.restart()
        after = walk.peer.hms_provider(SERETH_ADDRESS)
        assert after is not before and after.hms is not before.hms
        view = after.view()
        assert (view.source, view.pool_size) == ("committed", 0)
        assert walk.peer.pool.version == 0
