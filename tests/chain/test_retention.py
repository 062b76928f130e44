"""Tests for windowed chain history: pruning, the anchor, and typed misses."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain.chain import Blockchain, ChainAnchor
from repro.chain.errors import InvalidBlock, PrunedHistoryError
from repro.chain.genesis import GenesisConfig
from repro.chain.state import StateSnapshot, WorldState
from repro.chain.transaction import Transaction
from repro.crypto.addresses import address_from_label

from ..oracles import ValueTransferExecutor

ALICE = address_from_label("alice")
BOB = address_from_label("bob")
MINER = address_from_label("miner")


def make_chain(retain_blocks=None) -> Blockchain:
    genesis = GenesisConfig.for_labels(["alice", "bob", "miner"], balance=10**18)
    return Blockchain(ValueTransferExecutor(), genesis, retain_blocks=retain_blocks)


def grow(chain: Blockchain, blocks: int, start_nonce: int = 0) -> None:
    for offset in range(blocks):
        transaction = Transaction(
            sender=ALICE, nonce=start_nonce + offset, to=BOB, value=1
        )
        block, _ = chain.build_block(
            [transaction], miner=MINER, timestamp=float(chain.height + 1)
        )
        chain.add_block(block)


class TestWindow:
    def test_retain_blocks_must_cover_head_and_parent(self):
        with pytest.raises(ValueError, match="at least 2"):
            make_chain(retain_blocks=1)

    def test_unretained_chain_never_prunes(self):
        chain = make_chain()
        grow(chain, 12)
        assert chain.earliest_block_number == 0
        assert chain.anchor is None
        assert len(chain.blocks()) == 13  # genesis + 12

    def test_window_slides_once_full(self):
        chain = make_chain(retain_blocks=4)
        grow(chain, 10)
        assert chain.height == 10
        assert len(chain.blocks()) == 4
        assert chain.earliest_block_number == 7

    def test_boundary_lookups(self):
        """The first retained block resolves; one block deeper is pruned."""
        chain = make_chain(retain_blocks=4)
        grow(chain, 10)
        first = chain.earliest_block_number
        assert chain.block_by_number(first).number == first
        assert chain.block_by_number(chain.height) is chain.head
        with pytest.raises(PrunedHistoryError):
            chain.block_by_number(first - 1)

    def test_pruned_error_is_typed_and_helpful(self):
        chain = make_chain(retain_blocks=4)
        grow(chain, 10)
        with pytest.raises(PrunedHistoryError, match="was pruned") as exc_info:
            chain.block_by_number(0)
        message = str(exc_info.value)
        # The message must say what the window is and how to widen it.
        assert "retains the newest 4 blocks" in message
        assert "starts at block 7" in message
        assert "retain_blocks" in message
        # Never-existed is still the plain InvalidBlock, not a pruning error.
        with pytest.raises(InvalidBlock):
            chain.block_by_number(chain.height + 5)
        with pytest.raises(InvalidBlock):
            chain.block_by_number(-1)

    def test_pruned_bodies_and_receipts_are_dropped(self):
        chain = make_chain(retain_blocks=4)
        grow(chain, 3)
        pruned_block = chain.block_by_number(1)
        pruned_tx = pruned_block.transactions[0]
        grow(chain, 7, start_nonce=3)
        assert chain.block_by_hash(pruned_block.hash) is None
        assert chain.receipt_for(pruned_tx.hash) is None
        retained_tx = chain.head.transactions[0]
        assert chain.receipt_for(retained_tx.hash) is not None


class TestAnchor:
    def test_anchor_commits_to_the_newest_evicted_block(self):
        chain = make_chain(retain_blocks=4)
        grow(chain, 6)
        boundary = chain.earliest_block_number
        anchor = chain.anchor
        assert isinstance(anchor, ChainAnchor)
        assert anchor.number == boundary - 1
        # The anchor's state root is the commitment the first retained block
        # was built on.
        first_retained = chain.block_by_number(boundary)
        assert first_retained.header.parent_hash == anchor.block_hash

    def test_blocks_folded_accumulates_across_prunes(self):
        chain = make_chain(retain_blocks=4)
        grow(chain, 6)
        first_fold = chain.anchor.blocks_folded
        grow(chain, 6, start_nonce=6)
        assert chain.anchor.blocks_folded == first_fold + 6
        # genesis + height == folded + retained, always.
        assert chain.anchor.blocks_folded + len(chain.blocks()) == chain.height + 1

    def test_snapshot_captured_at_prune_time(self):
        chain = make_chain(retain_blocks=4)
        grow(chain, 8)
        snapshot = chain.last_snapshot
        assert snapshot is not None
        assert snapshot.block_number == chain.height


class EagerChain(Blockchain):
    """The reference the lazy properties replaced: capture the anchor and
    the snapshot inside every prune, the way the chain used to."""

    eager_anchor = None
    eager_snapshot = None

    def _prune_window(self) -> None:
        excess = len(self._blocks) - self.retain_blocks
        newest = self._blocks[excess - 1]
        folded = (self.eager_anchor.blocks_folded if self.eager_anchor else 0) + excess
        super()._prune_window()
        self.eager_anchor = ChainAnchor(
            number=newest.number,
            block_hash=newest.hash,
            state_root=newest.header.state_root,
            timestamp=newest.timestamp,
            blocks_folded=folded,
        )
        self.eager_snapshot = StateSnapshot.capture(
            self._state, block_number=self.height, state_root=self.head.header.state_root
        )


class TestLazyEqualsEager:
    @settings(max_examples=60, deadline=None)
    @given(
        retain_blocks=st.integers(min_value=2, max_value=16),
        carries_transaction=st.lists(st.booleans(), max_size=40),
    )
    def test_anchor_and_snapshot_read_what_an_eager_prune_captured(
        self, retain_blocks, carries_transaction
    ):
        genesis = GenesisConfig.for_labels(["alice", "bob", "miner"], balance=10**18)
        retained = EagerChain(ValueTransferExecutor(), genesis, retain_blocks=retain_blocks)
        twin = make_chain()
        assert retained.anchor is None and retained.last_snapshot is None
        nonce = 0
        for carries in carries_transaction:
            transactions = []
            if carries:
                transactions.append(Transaction(sender=ALICE, nonce=nonce, to=BOB, value=1))
                nonce += 1
            block, _ = twin.build_block(
                transactions, miner=MINER, timestamp=float(twin.height + 1)
            )
            twin.add_block(block)
            retained.add_block(block)

            assert retained.anchor == retained.eager_anchor
            assert retained.last_snapshot == retained.eager_snapshot
            boundary = retained.earliest_block_number
            if boundary == 0:
                assert retained.anchor is None and retained.last_snapshot is None
                continue
            evicted = twin.block_by_number(boundary - 1)
            anchor = retained.anchor
            assert (anchor.number, anchor.block_hash, anchor.state_root, anchor.timestamp) == (
                evicted.number, evicted.hash, evicted.header.state_root, evicted.timestamp
            )
            assert anchor.blocks_folded + len(retained.blocks()) == retained.height + 1
            assert retained.last_snapshot == StateSnapshot.capture(
                retained.state, retained.height, retained.head.header.state_root
            )
            assert retained.head.hash == twin.head.hash
            assert retained.state.state_root() == twin.state.state_root()

    def test_imports_on_a_full_window_pay_for_no_observer_surface(self, monkeypatch):
        chain = make_chain(retain_blocks=4)
        grow(chain, 6)
        calls = {"rss_stats": 0, "anchor": 0}
        rss_stats, anchor_init = WorldState.rss_stats, ChainAnchor.__init__

        def counting_rss_stats(self):
            calls["rss_stats"] += 1
            return rss_stats(self)

        def counting_anchor_init(self, *args, **kwargs):
            calls["anchor"] += 1
            anchor_init(self, *args, **kwargs)

        monkeypatch.setattr(WorldState, "rss_stats", counting_rss_stats)
        monkeypatch.setattr(ChainAnchor, "__init__", counting_anchor_init)
        grow(chain, 200, start_nonce=6)
        assert chain.earliest_block_number == 203
        assert calls == {"rss_stats": 0, "anchor": 0}
        assert chain.anchor.number == 202 and chain.last_snapshot.block_number == 206
        assert calls == {"rss_stats": 1, "anchor": 1}


class TestOutcomeParity:
    def test_pruned_chain_commits_the_same_blocks(self):
        """Retention is an observer knob: both chains reach the same head
        hash and the same state root block for block."""
        retained = make_chain(retain_blocks=4)
        unretained = make_chain()
        for offset in range(12):
            transaction = Transaction(sender=ALICE, nonce=offset, to=BOB, value=1)
            block, _ = unretained.build_block(
                [transaction], miner=MINER, timestamp=float(offset + 1)
            )
            unretained.add_block(block)
            retained.add_block(block)
        assert retained.head.hash == unretained.head.hash
        assert retained.state.state_root() == unretained.state.state_root()
        assert retained.state.get_balance(BOB) == unretained.state.get_balance(BOB)
