"""The blockchain: an append-only list of validated blocks plus current state.

Each peer in the simulated network holds its own ``Blockchain`` instance.
Appending a block received from the network triggers *block validation* —
the peer replays every transaction against its own copy of the parent state
and checks that the announced state/transaction/receipt roots match
(Section II-D of the paper).  A block whose replay diverges is rejected.

History is unbounded by default.  With ``retain_blocks=N`` the chain keeps
only the newest N blocks in memory: older blocks (and their receipts, and
the wire bytes they own) are evicted and folded into a sealed
:class:`ChainAnchor` — a commitment to the pruned prefix (number, hash,
state root) — and lookups below the window raise
:class:`~repro.chain.errors.PrunedHistoryError`.  The head state is always
live, so consensus never needs the evicted bodies; only historical
inspection does.

Pruning pays only for what it must: it slices the window, drops the index
entries and seals the head state.  :attr:`Blockchain.anchor` and
:attr:`Blockchain.last_snapshot` are observer surfaces (tests and interactive
inspection read them, nothing under ``src/`` does), so they are derived when
read.  Once the window is full every import prunes, so "the state at the
last prune" *is* the head state and the derived values equal eagerly
captured ones field for field.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..crypto.addresses import Address
from ..obs import runtime as _obs
from .apply_cache import BlockApplyCache
from .block import Block, BlockHeader, transactions_root
from .errors import InvalidBlock, PrunedHistoryError, ValidationError
from .executor import BlockContext, TransactionExecutor
from .genesis import GenesisConfig, build_genesis_cached
from .receipt import Receipt, receipts_root
from .state import StateSnapshot, WorldState
from .transaction import Transaction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..core.audit import AuditCursor

__all__ = ["Blockchain", "ChainAnchor", "execute_transactions"]


@dataclass(frozen=True)
class ChainAnchor:
    """Sealed commitment to the pruned prefix of a windowed chain.

    When retention evicts blocks, the newest evicted block's identifiers are
    folded in here: the anchor proves what the discarded history committed
    to (its state root is the commitment the first retained block was built
    on) without keeping any of its bodies in memory.
    """

    number: int
    block_hash: bytes
    state_root: bytes
    timestamp: float
    blocks_folded: int
    """How many blocks (genesis included) have been folded into this anchor."""


def execute_transactions(
    executor: TransactionExecutor,
    state: WorldState,
    transactions: List[Transaction],
    block: BlockContext,
) -> List[Receipt]:
    """Apply ``transactions`` in order to ``state``, returning their receipts.

    Failed transactions are rolled back (their state changes discarded) but a
    receipt is still produced, matching the blockchain behaviour of including
    failed transactions in the published block.  The executor builds each
    receipt once, sealed and already stamped with its block position.
    """
    tracer = _obs.TRACER
    start = perf_counter() if tracer is not None else 0.0
    receipts: List[Receipt] = []
    for index, transaction in enumerate(transactions):
        # Executors are responsible for rollback-on-failure semantics (a
        # failed transaction still consumes its nonce and gas).  The snapshot
        # here is a safety net for executor bugs that raise instead of
        # returning a failed receipt.
        snapshot = state.snapshot()
        try:
            receipt = executor.execute(state, transaction, block, index)
        except Exception as error:  # defensive: executors should not raise
            state.revert(snapshot)
            receipt = Receipt(
                transaction.hash, False, 0, [], f"executor error: {error}", b"",
                block.number, index, block.timestamp,
            )
        else:
            state.commit(snapshot)
        receipts.append(receipt)
    if tracer is not None:
        tracer.phase("state_apply", start)
    return receipts


class Blockchain:
    """A single peer's view of the chain."""

    def __init__(
        self,
        executor: TransactionExecutor,
        genesis_config: Optional[GenesisConfig] = None,
        apply_cache: Optional[BlockApplyCache] = None,
        retain_blocks: Optional[int] = None,
    ) -> None:
        if retain_blocks is not None and retain_blocks < 2:
            raise ValueError("retain_blocks must be at least 2 (head and its parent)")
        self.executor = executor
        self.apply_cache = apply_cache
        self.retain_blocks = retain_blocks
        # Genesis states are built once per process per distinct config and
        # shared as frozen templates; every chain works on its own O(1) fork.
        genesis_block, genesis_state = build_genesis_cached(
            genesis_config or GenesisConfig()
        )
        self._blocks: List[Block] = [genesis_block]
        self._first_retained = 0
        self._newest_evicted: Optional[BlockHeader] = None
        self._blocks_by_hash: Dict[bytes, Block] = {genesis_block.hash: genesis_block}
        self._state = genesis_state.fork()
        self._state_token = (
            apply_cache.genesis_token(genesis_block.hash)
            if apply_cache is not None
            else None
        )
        self._receipts_by_tx: Dict[bytes, Receipt] = {}
        self.audit_cursor: Optional["AuditCursor"] = None
        """Fed every block this chain appends, in order; set on the chain a
        workload audits, before its first import."""

    # -- inspection -----------------------------------------------------------

    @property
    def head(self) -> Block:
        """The most recently appended block."""
        return self._blocks[-1]

    @property
    def height(self) -> int:
        """The block number of the head."""
        return self.head.number

    @property
    def state(self) -> WorldState:
        """The post-head world state (the READ-COMMITTED view)."""
        return self._state

    @property
    def earliest_block_number(self) -> int:
        """Number of the oldest block still held in memory (0 = genesis)."""
        return self._first_retained

    @property
    def anchor(self) -> Optional[ChainAnchor]:
        """Commitment to the pruned prefix, or None while history is intact.
        Blocks are numbered from genesis without gaps, so the count folded
        away is the number of the first one still retained."""
        header = self._newest_evicted
        if header is None:
            return None
        return ChainAnchor(
            number=header.number,
            block_hash=header.hash,
            state_root=header.state_root,
            timestamp=header.timestamp,
            blocks_folded=self._first_retained,
        )

    @property
    def last_snapshot(self) -> Optional[StateSnapshot]:
        """Memory footprint of the head state as of the last prune (None
        until the first), so tests can observe that pruning released
        per-account memos rather than merely hiding blocks."""
        if self._newest_evicted is None:
            return None
        return StateSnapshot.capture(
            self._state, block_number=self.height, state_root=self.head.header.state_root
        )

    def block_by_number(self, number: int) -> Block:
        index = number - self._first_retained
        if index < 0:
            if number >= 0:
                raise PrunedHistoryError(
                    f"block {number} was pruned: this chain retains the newest "
                    f"{self.retain_blocks} blocks and its window starts at block "
                    f"{self._first_retained}; raise retain_blocks (or run with "
                    f"retention disabled) to keep deeper history"
                )
            raise InvalidBlock(f"no block with number {number}")
        if index >= len(self._blocks):
            raise InvalidBlock(f"no block with number {number}")
        return self._blocks[index]

    def block_by_hash(self, block_hash: bytes) -> Optional[Block]:
        return self._blocks_by_hash.get(block_hash)

    def blocks(self) -> List[Block]:
        """Every retained block, oldest first (from genesis unless pruned)."""
        return list(self._blocks)

    def receipt_for(self, transaction_hash: bytes) -> Optional[Receipt]:
        """Receipt of a committed transaction, if any."""
        return self._receipts_by_tx.get(transaction_hash)

    def transaction_is_committed(self, transaction_hash: bytes) -> bool:
        return transaction_hash in self._receipts_by_tx

    # -- block production ------------------------------------------------------

    def build_block(
        self,
        transactions: List[Transaction],
        miner: Address,
        timestamp: float,
        difficulty: int = 1,
        nonce: int = 0,
        extra_data: bytes = b"",
    ) -> Tuple[Block, WorldState]:
        """Execute ``transactions`` on top of the head and assemble a block.

        Returns the block and the resulting state; the block is *not*
        appended — the caller (a miner) publishes it to the network and every
        peer, including the miner itself, imports it via :meth:`add_block`.
        """
        parent = self.head
        context = BlockContext(
            number=parent.number + 1,
            timestamp=timestamp,
            miner=miner,
            gas_limit=parent.header.gas_limit,
            difficulty=difficulty,
        )
        working_state = self._state.fork()
        receipts = execute_transactions(self.executor, working_state, transactions, context)
        header = BlockHeader(
            parent_hash=parent.hash,
            number=context.number,
            timestamp=timestamp,
            miner=miner,
            state_root=working_state.state_root(),
            transactions_root=transactions_root(transactions),
            receipts_root=receipts_root(receipts),
            difficulty=difficulty,
            gas_limit=context.gas_limit,
            gas_used=sum(receipt.gas_used for receipt in receipts),
            nonce=nonce,
            extra_data=extra_data,
        )
        block = Block(header=header, transactions=transactions, receipts=receipts)
        if self.apply_cache is not None and all(
            transaction.signature_is_valid() for transaction in transactions
        ):
            # Publish the build outcome so every peer on the same lineage can
            # import this block with an O(1) fork instead of a full replay.
            # The header's roots are commitments *derived from* this very
            # execution, so the only validation a replay would add beyond
            # them is the signature check performed above; a block carrying
            # a tampered transaction is deliberately not cached and gets
            # rejected by every peer's full validation, exactly as before.
            # The stored state becomes a frozen shared template, so the
            # caller receives a private fork of it, never the template.
            self.apply_cache.store(
                self._state_token, block.hash, working_state, block_number=block.number
            )
            working_state = working_state.fork()
        return block, working_state

    # -- block import / validation ----------------------------------------------

    def validate_block(self, block: Block) -> WorldState:
        """Replay ``block`` against the local head state (transaction replay).

        Returns the post-block state on success and raises
        :class:`ValidationError` or :class:`InvalidBlock` otherwise.
        """
        tracer = _obs.TRACER
        start = perf_counter() if tracer is not None else 0.0
        parent = self.head
        if block.header.parent_hash != parent.hash:
            raise InvalidBlock(
                f"block {block.number} does not extend the local head "
                f"(expected parent {parent.short_hash()})"
            )
        if block.number != parent.number + 1:
            raise InvalidBlock(f"expected block number {parent.number + 1}, got {block.number}")
        if not block.verify_roots():
            raise InvalidBlock("block body does not match header commitments")
        for transaction in block.transactions:
            if not transaction.signature_is_valid():
                raise ValidationError(
                    f"transaction {transaction.short_hash()} has an invalid signature "
                    "(inputs were modified after signing)"
                )
        context = BlockContext(
            number=block.number,
            timestamp=block.timestamp,
            miner=block.header.miner,
            gas_limit=block.header.gas_limit,
            difficulty=block.header.difficulty,
        )
        replay_state = self._state.fork()
        replay_receipts = execute_transactions(
            self.executor, replay_state, block.transactions, context
        )
        if replay_state.state_root() != block.header.state_root:
            raise ValidationError(
                f"replaying block {block.number} produced a different state root"
            )
        if receipts_root(replay_receipts) != block.header.receipts_root:
            raise ValidationError(
                f"replaying block {block.number} produced different receipts"
            )
        if tracer is not None:
            tracer.phase("validate", start)
        return replay_state

    def add_block(self, block: Block) -> Block:
        """Validate and append ``block``, advancing the head state.

        With an :class:`~repro.chain.apply_cache.BlockApplyCache` attached,
        a block already applied on this chain's exact state lineage (by the
        miner that built it or the first validating peer) is imported by
        forking the cached post-state instead of replaying — the cache key
        proves the parent states are identical, so the replay would
        reproduce the cached outcome bit for bit.
        """
        cached = None
        if self.apply_cache is not None:
            cached = self.apply_cache.lookup(self._state_token, block.hash)
        if cached is not None:
            if block.header.parent_hash != self.head.hash:  # defense in depth:
                # a lineage-token hit implies the parent matches.
                raise InvalidBlock(
                    f"block {block.number} does not extend the local head"
                )
            post_token, template = cached
            new_state = template.fork()
        else:
            new_state = self.validate_block(block)
            if self.apply_cache is not None:
                post_token = self.apply_cache.store(
                    self._state_token, block.hash, new_state, block_number=block.number
                )
                new_state = new_state.fork()  # the stored template stays frozen
            else:
                post_token = None
        self._blocks.append(block)
        self._blocks_by_hash[block.hash] = block
        self._state = new_state
        self._state_token = post_token
        for receipt in block.receipts:
            self._receipts_by_tx[receipt.transaction_hash] = receipt
        if self.audit_cursor is not None:
            self.audit_cursor.feed(block)
        if self.retain_blocks is not None and len(self._blocks) > self.retain_blocks:
            self._prune_window()
        return block

    def _prune_window(self) -> None:
        """Evict blocks beyond the retention window.

        Their bodies, hash-index entries and receipts are dropped; the
        newest evicted header is all :attr:`anchor` needs.  The head state
        is sealed (its overlay folded into the shared frozen base) so what
        stays resident is one settled base.
        """
        excess = len(self._blocks) - self.retain_blocks
        evicted = self._blocks[:excess]
        del self._blocks[:excess]
        self._first_retained += excess
        for block in evicted:
            self._blocks_by_hash.pop(block.hash, None)
            for receipt in block.receipts:
                self._receipts_by_tx.pop(receipt.transaction_hash, None)
        self._newest_evicted = evicted[-1].header
        state = self._state
        if not state._journal:
            state._seal()

    def committed_transaction_hashes(self) -> List[bytes]:
        """Hashes of every transaction committed to the chain so far."""
        return list(self._receipts_by_tx.keys())
