"""Peers: the nodes of the simulated Ethereum network.

A peer owns a full chain copy, a TxPool, and a contract execution engine.
The difference between a "Geth" peer and a "Sereth" peer is exactly what the
paper describes: the Sereth peer additionally runs the HMS/RAA machinery —
an RAA provider wired to its *own* pool and state — while speaking the same
protocol on the wire, which is why the two interoperate on one network.

Gossip invariants (the zero-copy contract): transactions and blocks arriving
over the network are frozen objects shared with every other peer.  A peer
may keep references to them (pool entries, chain storage) but must NEVER
mutate them — a peer that wants a variant transaction builds a new object.
A peer's own world state is always a private copy-on-write fork, so local
view calls and replays never leak into a neighbour.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from ..chain.apply_cache import BlockApplyCache
from ..chain.block import Block
from ..chain.chain import Blockchain
from ..chain.errors import ChainError
from ..chain.executor import BlockContext
from ..chain.genesis import GenesisConfig
from ..chain.transaction import Transaction
from ..core.hms.process import HMSConfig
from ..core.raa.provider import HMSRAAProvider, RAAProviderRegistry, SerethStorageLayout
from ..crypto.addresses import Address
from ..evm.engine import CallResult, ExecutionEngine
from ..evm.registry import ContractRegistry, default_registry
from ..obs import runtime as _obs
from ..txpool.pool import TxPool

__all__ = [
    "PeerStats",
    "Peer",
    "IMPORT_IMPORTED",
    "IMPORT_DUPLICATE",
    "IMPORT_ORPHANED",
    "IMPORT_REJECTED",
]

GETH_CLIENT = "geth"
SERETH_CLIENT = "sereth"

IMPORT_IMPORTED = "imported"
IMPORT_DUPLICATE = "duplicate"
IMPORT_ORPHANED = "orphaned"
IMPORT_REJECTED = "rejected"


@dataclass
class PeerStats:
    """Counters a peer keeps about its own behaviour."""

    transactions_submitted: int = 0
    transactions_received: int = 0
    transactions_duplicate: int = 0
    blocks_imported: int = 0
    blocks_rejected: int = 0
    blocks_duplicate: int = 0
    blocks_orphaned: int = 0
    calls_served: int = 0


class Peer:
    """One node: chain + pool + engine (+ optionally HMS/RAA)."""

    def __init__(
        self,
        peer_id: str,
        genesis: GenesisConfig,
        client_kind: str = GETH_CLIENT,
        registry: Optional[ContractRegistry] = None,
        pool_max_size: Optional[int] = None,
        apply_cache: Optional[BlockApplyCache] = None,
        retain_blocks: Optional[int] = None,
    ) -> None:
        if client_kind not in (GETH_CLIENT, SERETH_CLIENT):
            raise ValueError(f"unknown client kind {client_kind!r}")
        self.peer_id = peer_id
        self.client_kind = client_kind
        # Construction inputs are kept so restart() can rebuild the node's
        # process state from scratch (crash faults = total state loss).
        self._registry = registry or default_registry()
        self._genesis = genesis
        self._pool_max_size = pool_max_size
        self._apply_cache = apply_cache
        self._retain_blocks = retain_blocks
        self.engine = ExecutionEngine(registry=self._registry)
        self.chain = Blockchain(
            self.engine, genesis, apply_cache=apply_cache, retain_blocks=retain_blocks
        )
        self.pool = TxPool(max_size=pool_max_size, owner=peer_id)
        self.stats = PeerStats()
        self.restarts = 0
        self.network = None  # a weak proxy, set by Network.add_peer
        self._raa_registry: Optional[RAAProviderRegistry] = None
        self._hms_providers: Dict[Address, HMSRAAProvider] = {}
        self._hms_configs: List[Tuple[Address, bytes, Optional[SerethStorageLayout]]] = []
        self._seen_transactions: set = set()
        # Orphan buffer for flood gossip: blocks whose ancestors have not
        # arrived yet, keyed by the parent hash they are waiting for.
        self._orphans: Dict[bytes, Block] = {}
        # (head hash, now, context) of the last head_context: calls at one
        # simulated instant on one head share the context.
        self._head_context: Optional[Tuple[bytes, Optional[float], BlockContext]] = None

    MAX_ORPHANS = 256

    # -- identity -------------------------------------------------------------------

    @property
    def is_sereth(self) -> bool:
        return self.client_kind == SERETH_CLIENT

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Peer({self.peer_id!r}, {self.client_kind}, height={self.chain.height})"

    # -- HMS / RAA wiring ---------------------------------------------------------------

    def install_hms(
        self,
        contract_address: Address,
        set_selector: bytes,
        layout: Optional[SerethStorageLayout] = None,
    ) -> HMSRAAProvider:
        """Attach an HMS-backed RAA provider for a watched contract.

        Only meaningful on Sereth peers; calling it on a Geth peer raises, to
        keep experiment configurations honest.
        """
        if not self.is_sereth:
            raise ValueError(f"peer {self.peer_id} runs the unmodified client; cannot install HMS")
        if self._raa_registry is None:
            self._raa_registry = RAAProviderRegistry()
            self.engine.raa_provider = self._raa_registry
        config = HMSConfig(contract_address=contract_address, set_selector=set_selector)
        # The engine holds the provider, so the suppliers hold this peer only
        # weakly: a finished trial is freed by reference counting, not by
        # the cyclic collector.
        peer = weakref.ref(self)
        provider = HMSRAAProvider(
            config=config,
            pool_supplier=lambda: peer().pool,
            state_supplier=lambda: peer().chain.state,
            layout=layout,
        )
        self._raa_registry.register(contract_address, provider)
        self._hms_providers[contract_address] = provider
        self._hms_configs.append((contract_address, set_selector, layout))
        return provider

    def hms_provider(self, contract_address: Address) -> Optional[HMSRAAProvider]:
        return self._hms_providers.get(contract_address)

    def override_raa_provider(self, contract_address: Address, provider: object) -> None:
        """Replace the RAA provider answering for one contract on this peer.

        The hook adversarial data services (and tests) use to interpose on
        the peer's reads; HMS must already be installed so the registry and
        the engine wiring exist.
        """
        if self._raa_registry is None:
            raise ValueError(
                f"peer {self.peer_id} has no RAA registry; install HMS before overriding"
            )
        self._raa_registry.register(contract_address, provider)

    # -- crash/restart --------------------------------------------------------------------

    def restart(self) -> None:
        """Rebuild this node's process state from genesis: total state loss.

        What a crash destroys: chain, pool, seen-transaction dedup, orphan
        buffer, counters.  What survives: the node's *configuration* — its
        client software (and therefore which contracts HMS watches), which
        is reinstalled against the fresh pool and chain, exactly as a real
        node restarting from its config file would.  Reconvergence is the
        caller's problem: the network delivers the next block, the fresh
        chain orphans it, and range sync backfills the gap (or, under
        provider retention, as much of it as any neighbour still serves).
        """
        self.engine = ExecutionEngine(registry=self._registry)
        self.chain = Blockchain(
            self.engine,
            self._genesis,
            apply_cache=self._apply_cache,
            retain_blocks=self._retain_blocks,
        )
        self.pool = TxPool(max_size=self._pool_max_size, owner=self.peer_id)
        self.stats = PeerStats()
        self._seen_transactions = set()
        self._orphans = {}
        self.restarts += 1
        hms_configs = self._hms_configs
        self._hms_configs = []
        self._raa_registry = None
        self._hms_providers = {}
        for contract_address, set_selector, layout in hms_configs:
            self.install_hms(contract_address, set_selector, layout=layout)

    # -- transaction handling -------------------------------------------------------------

    def submit_transaction(self, transaction: Transaction, now: float) -> bool:
        """Accept a transaction from a local client and gossip it."""
        accepted = self._admit(transaction, now)
        tracer = _obs.TRACER
        if tracer is not None:
            tracer.event(
                "tx.submit",
                peer=self.peer_id,
                tx=transaction.hash,
                nonce=transaction.nonce,
                accepted=accepted,
            )
        if accepted:
            self.stats.transactions_submitted += 1
            if self.network is not None:
                self.network.broadcast_transaction(self, transaction)
        return accepted

    def receive_transaction(self, transaction: Transaction, now: float) -> bool:
        """Accept a transaction arriving over gossip."""
        accepted = self._admit(transaction, now)
        if accepted:
            self.stats.transactions_received += 1
        else:
            self.stats.transactions_duplicate += 1
        return accepted

    def _admit(self, transaction: Transaction, now: float) -> bool:
        transaction_hash = transaction.hash
        if transaction_hash in self._seen_transactions:
            return False
        if self.chain.transaction_is_committed(transaction_hash):
            return False
        self._seen_transactions.add(transaction_hash)
        return self.pool.add(transaction, arrival_time=now)

    # -- block handling --------------------------------------------------------------------

    def receive_block(self, block: Block) -> bool:
        """Validate and import a block, then prune the pool.

        A block already on the chain is dropped by hash before any
        validation replay (gossip redundantly re-delivers blocks; importing
        one twice would be rejected anyway, but counting it as a rejection
        hides real validation failures).
        """
        if self.chain.block_by_hash(block.hash) is not None:
            self.stats.blocks_duplicate += 1
            return False
        tracer = _obs.TRACER
        start = perf_counter() if tracer is not None else 0.0
        try:
            self.chain.add_block(block)
        except ChainError as error:
            self.stats.blocks_rejected += 1
            if tracer is not None:
                tracer.phase("block_import", start)
                tracer.event(
                    "block.reject",
                    peer=self.peer_id,
                    block=block.hash,
                    number=block.number,
                    error=str(error),
                )
            return False
        self.stats.blocks_imported += 1
        self.pool.remove_committed(block)
        self.pool.drop_stale(self.chain.state)
        if tracer is not None:
            tracer.phase("block_import", start)
            tracer.event(
                "block.import",
                peer=self.peer_id,
                block=block.hash,
                number=block.number,
                txs=len(block.transactions),
            )
        return True

    def import_block(self, block: Block) -> Tuple[str, List[Block]]:
        """Import with orphan buffering: the flood-gossip entry point.

        Returns ``(status, imported)`` where status is one of
        ``IMPORT_IMPORTED`` / ``IMPORT_DUPLICATE`` / ``IMPORT_ORPHANED`` /
        ``IMPORT_REJECTED`` and ``imported`` lists every block actually
        appended — the delivered one plus any buffered orphans it unlocked.
        A block whose ancestors have not arrived yet (multi-hop floods and
        partition heals deliver out of order) waits in a bounded buffer
        keyed by the parent hash it needs.
        """
        if self.chain.block_by_hash(block.hash) is not None:
            self.stats.blocks_duplicate += 1
            return (IMPORT_DUPLICATE, [])
        if block.number > self.chain.height + 1:
            self._buffer_orphan(block)
            return (IMPORT_ORPHANED, [])
        if not self.receive_block(block):
            return (IMPORT_REJECTED, [])
        imported = [block]
        while True:
            child = self._orphans.pop(self.chain.head.hash, None)
            if child is None:
                break
            if not self.receive_block(child):
                break
            imported.append(child)
        return (IMPORT_IMPORTED, imported)

    def _buffer_orphan(self, block: Block) -> None:
        self.stats.blocks_orphaned += 1
        tracer = _obs.TRACER
        if tracer is not None:
            tracer.event(
                "block.orphan",
                peer=self.peer_id,
                block=block.hash,
                number=block.number,
                height=self.chain.height,
            )
        self._orphans[block.header.parent_hash] = block
        while len(self._orphans) > self.MAX_ORPHANS:
            # Evict the orphan farthest in the future — the least likely to
            # become importable before a range sync refreshes everything.
            farthest = max(self._orphans, key=lambda parent: self._orphans[parent].number)
            del self._orphans[farthest]

    # -- client-facing API ---------------------------------------------------------------------

    def head_context(self, now: Optional[float] = None) -> BlockContext:
        """Block context representing "the next block" for local calls
        (immutable, so one is reused while the head and ``now`` hold)."""
        head = self.chain.head
        cached = self._head_context
        if cached is not None and cached[0] == head.hash and cached[1] == now:
            return cached[2]
        context = BlockContext(
            number=head.number + 1,
            timestamp=now if now is not None else head.timestamp,
            miner=head.header.miner,
            gas_limit=head.header.gas_limit,
            difficulty=head.header.difficulty,
        )
        self._head_context = (head.hash, now, context)
        return context

    def call_contract(
        self,
        contract_address: Address,
        function_name: str,
        arguments: Sequence[object],
        caller: Address,
        now: Optional[float] = None,
        allow_raa: bool = True,
    ) -> CallResult:
        """Evaluate a view/pure function against this peer's local state.

        On a Sereth peer with HMS installed, RAA-augmentable arguments are
        filled with the READ-UNCOMMITTED view; on a Geth peer the arguments
        pass through unchanged.
        """
        self.stats.calls_served += 1
        return self.engine.call(
            self.chain.state,
            contract_address,
            function_name,
            arguments,
            caller=caller,
            block=self.head_context(now),
            allow_raa=allow_raa,
        )

    def next_nonce(self, address: Address) -> int:
        """The nonce a client should use next: account nonce plus pending txs."""
        pending = self.pool.pending_by_sender().get(address, [])
        base = self.chain.state.get_nonce(address)
        nonces = {entry.nonce for entry in pending}
        nonce = base
        while nonce in nonces:
            nonce += 1
        return nonce
