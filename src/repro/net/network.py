"""The gossip network connecting peers.

Two wire modes share this class:

* **Direct broadcast** (the default, and the only mode before the topology
  subsystem existed): every transaction and block goes straight from the
  origin to every other peer with a sampled one-way latency.  This is the
  behaviour the committed golden checksums cover, so its code path — RNG
  draw order included — is preserved exactly.
* **Topology flood** (when :meth:`install_topology` has wired an adjacency):
  messages travel edge by edge, store-and-forward.  A peer forwards an
  artefact to its neighbours (except the one it came from) on *first*
  receipt only — deliveries are deduplicated by object hash — so a flood
  terminates after each node has relayed once.

Message loss can be injected per message type to model the paper's
observation that "transactions sent may be lost due to network failures,
memory limitations or peers not replaying them".  On top of latency, an
optional :class:`~repro.net.topology.BandwidthModel` adds FIFO serialisation
delay per directed link (a burst of blocks down one pipe queues rather than
teleports), and churn state (offline peers, partitions) gates sends at the
moment they are scheduled — in-flight messages still deliver unless the
receiver itself has gone offline.

A :class:`repro.faults.FaultInjector` armed via :meth:`Network.install_faults`
additionally gets one decision per delivery hop (drop / duplicate / extra
delay / corrupt-then-reject) plus the :meth:`crash_peer` / :meth:`restart_peer`
callbacks; its decisions draw from their own spec-derived streams, never from
this module's RNG, so the clean path's draw order — and the golden checksums —
are untouched.  Fault drops land in the existing ``*_dropped`` counters (they
are message loss) and are additionally attributed by kind in the injector's
own counters.
"""

from __future__ import annotations

import random
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Set, Tuple, Union

from ..chain.block import Block
from ..chain.transaction import Transaction
from ..chain.wire import wire_encoding
from ..core.percentiles import percentile
from ..obs import runtime as _obs
from .latency import ConstantLatency, LatencyModel
from .peer import IMPORT_DUPLICATE, IMPORT_IMPORTED, IMPORT_ORPHANED, Peer
from .sim import Simulator
from .topology import BandwidthModel, ChurnPlan, Topology, edge_key

__all__ = ["NetworkStats", "Network"]

# Nominal one-hop latency for post-fault anti-entropy offers.  Fixed rather
# than sampled so the heal round consumes no RNG state: a faulted run's event
# schedule stays a pure function of its seed plan.
_HEAL_OFFER_DELAY = 0.05


@dataclass
class NetworkStats:
    """Counters about gossip traffic.

    Byte counters measure what a real devp2p network would have shipped:
    the wire encoding is computed once per artefact (see
    :func:`repro.chain.wire.wire_encoding`) and counted once per scheduled
    delivery hop — the origin's own immediate block import is not a hop.
    ``*_dropped`` counts stochastic loss-model drops; ``*_dropped_link``
    counts churn casualties (offline peers, severed partitions).
    """

    transactions_broadcast: int = 0
    transaction_deliveries: int = 0
    transactions_dropped: int = 0
    transactions_dropped_link: int = 0
    blocks_broadcast: int = 0
    block_deliveries: int = 0
    blocks_dropped: int = 0
    blocks_dropped_link: int = 0
    block_duplicates: int = 0
    blocks_orphaned: int = 0
    sync_requests: int = 0
    sync_blocks: int = 0
    sync_pruned_misses: int = 0
    transaction_bytes: int = 0
    block_bytes: int = 0

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain JSON-ready dict with sorted keys (the
        shape the ``network`` observability probe reports)."""
        return {
            "block_bytes": self.block_bytes,
            "block_deliveries": self.block_deliveries,
            "block_duplicates": self.block_duplicates,
            "blocks_broadcast": self.blocks_broadcast,
            "blocks_dropped": self.blocks_dropped,
            "blocks_dropped_link": self.blocks_dropped_link,
            "blocks_orphaned": self.blocks_orphaned,
            "sync_blocks": self.sync_blocks,
            "sync_pruned_misses": self.sync_pruned_misses,
            "sync_requests": self.sync_requests,
            "transaction_bytes": self.transaction_bytes,
            "transaction_deliveries": self.transaction_deliveries,
            "transactions_broadcast": self.transactions_broadcast,
            "transactions_dropped": self.transactions_dropped,
            "transactions_dropped_link": self.transactions_dropped_link,
        }


class Network:
    """A gossip network over a shared simulator (full mesh unless a
    topology is installed)."""

    def __init__(
        self,
        simulator: Simulator,
        latency: Optional[LatencyModel] = None,
        block_latency: Optional[LatencyModel] = None,
        transaction_loss_rate: float = 0.0,
        block_loss_rate: float = 0.0,
        seed: Optional[int] = None,
        bandwidth: Optional[BandwidthModel] = None,
        history_limit: Optional[int] = None,
    ) -> None:
        if not 0.0 <= transaction_loss_rate < 1.0 or not 0.0 <= block_loss_rate < 1.0:
            raise ValueError("loss rates must be in [0, 1)")
        if history_limit is not None and history_limit < 1:
            raise ValueError("history_limit must be at least 1 block")
        self.simulator = simulator
        self.latency = latency or ConstantLatency(0.05)
        self.block_latency = block_latency or self.latency
        self.transaction_loss_rate = transaction_loss_rate
        self.block_loss_rate = block_loss_rate
        self.bandwidth = bandwidth
        self.history_limit = history_limit
        """Bound per-block bookkeeping (flood dedup sets, block birth times,
        propagation samples) to roughly this many recent blocks.  ``None``
        (the default) keeps everything for the whole run — the exact
        behaviour the golden-gated summaries were recorded against; the
        engine sets it to ``spec.retention`` so a retained run's network
        bookkeeping is windowed like its chains."""
        self.stats = NetworkStats()
        self._peers: Dict[str, Peer] = {}
        # seed=None draws fresh OS entropy; reproducible runs thread a
        # spec-derived seed (SeedPlan.network) through here.
        self._rng = random.Random(seed)

        # Topology flood state (inert until install_topology is called).
        self.topology: Optional[Topology] = None
        self._adjacency: Optional[Dict[str, Tuple[str, ...]]] = None
        self._latency_scale: Dict[Tuple[str, str], float] = {}
        self._seen_blocks: Dict[str, Set[bytes]] = {}
        self._seen_order: Dict[str, Deque[bytes]] = {}
        """Per-peer insertion order of ``_seen_blocks`` entries, maintained
        only under ``history_limit`` so the dedup sets can evict oldest-first."""
        # Churn state (inert until a churn call flips _churn_active).
        self._churn_active = False
        self._offline: Set[str] = set()
        self._partition_of: Optional[Dict[str, int]] = None
        self.churn_log: List[Tuple[float, str, Any]] = []
        # FIFO bandwidth queues: directed link -> time the pipe frees up.
        self._link_free_at: Dict[Tuple[str, str], float] = {}
        # Propagation measurement + ancestor-sync bookkeeping.
        self._block_born: Dict[bytes, float] = {}
        # Under a history limit the samples become a trailing window (a
        # steady-state network's delay distribution is stationary, so the
        # window is as representative as the full-run list it replaces).
        self._propagation_samples: Union[List[float], Deque[float]] = (
            deque(maxlen=32 * history_limit) if history_limit is not None else []
        )
        self._sync_inflight: Dict[str, float] = {}
        # Fault injection (inert until install_faults is called): with no
        # injector armed, every send seam takes a single dead branch — the
        # golden-gated zero-cost path, exactly like the tracer hook.
        self._faults = None

    # -- membership -----------------------------------------------------------------

    def add_peer(self, peer: Peer) -> Peer:
        if peer.peer_id in self._peers:
            raise ValueError(f"duplicate peer id {peer.peer_id!r}")
        self._peers[peer.peer_id] = peer
        # Weak, because the network owns its peers: a finished trial is then
        # freed by reference counting, not by the cyclic collector.
        peer.network = weakref.proxy(self)
        return peer

    def __len__(self) -> int:
        return len(self._peers)

    # -- topology -------------------------------------------------------------------

    def install_topology(self, topology: Topology) -> None:
        """Switch gossip from direct broadcast to flooding along ``topology``.

        The adjacency must cover every current peer — a peer outside the
        graph would silently never hear anything.
        """
        missing = [peer_id for peer_id in self._peers if peer_id not in topology.adjacency]
        if missing:
            raise ValueError(f"topology is missing peers: {missing}")
        self.topology = topology
        self._adjacency = {
            peer_id: topology.adjacency[peer_id] for peer_id in topology.adjacency
        }
        self._latency_scale = dict(topology.latency_scale)

    # -- churn ----------------------------------------------------------------------

    def set_offline(self, peer_id: str, offline: bool = True) -> None:
        """Take a peer off (or back onto) the network.  It keeps its local
        state — a rejoining peer catches up via ancestor sync when the next
        block orphans on it."""
        self._churn_active = True
        if offline:
            self._offline.add(peer_id)
        else:
            self._offline.discard(peer_id)

    def set_partition(self, groups) -> None:
        """Sever links between peer groups.  Peers not named in any group
        share one implicit extra group (so partitioning off a subset is
        just ``set_partition([subset])``)."""
        self._churn_active = True
        mapping: Dict[str, int] = {}
        for index, group in enumerate(groups):
            for peer_id in group:
                mapping[peer_id] = index
        self._partition_of = mapping

    def heal_partition(self) -> None:
        self._partition_of = None

    def schedule_churn(self, plan: ChurnPlan) -> None:
        """Apply ``plan``'s events from the event loop at their times."""
        self._churn_active = True
        for event in plan.events:
            self.simulator.schedule_at(event.time, self._apply_churn, event)

    def _apply_churn(self, event) -> None:
        if event.kind == "leave":
            self.set_offline(event.peer_id, True)
            detail: Any = event.peer_id
        elif event.kind == "join":
            self.set_offline(event.peer_id, False)
            detail = event.peer_id
        elif event.kind == "partition":
            self.set_partition(event.groups)
            detail = event.groups
        else:  # heal
            self.heal_partition()
            detail = None
        self.churn_log.append((self.simulator.now, event.kind, detail))
        tracer = _obs.TRACER
        if tracer is not None:
            tracer.event("churn", kind=event.kind, detail=detail)

    # -- fault injection --------------------------------------------------------------

    def install_faults(self, injector) -> None:
        """Arm a :class:`repro.faults.FaultInjector` on the gossip seams.

        Message faults are consulted once per scheduled delivery hop (direct
        broadcast and topology flood alike); crash faults call back into
        :meth:`crash_peer` / :meth:`restart_peer` from the event loop.
        """
        self._faults = injector

    def crash_peer(self, peer_id: str) -> None:
        """Kill ``peer_id``: offline *and* total state loss, unlike churn's
        ``leave`` (which keeps local state).  The network's own per-peer
        bookkeeping dies with the process — dedup sets (a reborn peer has
        seen nothing) and sync throttles — so nothing remembers state across
        the death."""
        peer = self._peers[peer_id]
        self.set_offline(peer_id, True)
        self._seen_blocks.pop(peer_id, None)
        self._seen_order.pop(peer_id, None)
        self._sync_inflight.pop(peer_id, None)
        peer.restart()

    def restart_peer(self, peer_id: str) -> None:
        """Bring a crashed peer back online.  Its state was wiped at crash
        time; it reconverges from genesis-or-anchor via the ordinary path —
        the next gossiped block orphans on it and triggers a range sync."""
        self.set_offline(peer_id, False)

    def heal_partitions(self) -> int:
        """One anti-entropy push round: offer the best head to every lagging
        online peer through the ordinary delivery path.

        Gossip alone cannot heal a run whose *final* blocks were dropped or
        corrupted — nothing arrives afterwards to orphan on the laggard and
        trigger a range sync.  Real clients close that gap by pulling
        (periodic status exchange); this models one such round.  The pushed
        head orphans on each laggard, whose range sync then fills the gap
        from the best peer.  Deliveries use a fixed nominal delay — no RNG
        draw — and bypass the fault seams (the engine calls this only after
        fault windows close).  Returns the number of offers scheduled."""
        online = [
            peer
            for peer_id, peer in self._peers.items()
            if peer_id not in self._offline
        ]
        if not online:
            return 0
        best = max(
            online,
            key=lambda peer: (peer.chain.height, peer.chain.head.hash, peer.peer_id),
        )
        head = best.chain.head
        if head.number == 0:
            return 0
        wire_size = len(wire_encoding(head))
        offered = 0
        for peer in online:
            if peer.chain.head.hash == head.hash:
                continue
            # The laggard may have seen (and orphaned) this head already with
            # its one allowed sync request spent on a stale provider; clear
            # both so the re-offer reaches import and resyncs from ``best``.
            seen = self._seen_blocks.get(peer.peer_id)
            if seen is not None:
                seen.discard(head.hash)
            self._sync_inflight.pop(peer.peer_id, None)
            self.stats.block_bytes += wire_size
            self._schedule_block_delivery(
                best.peer_id, peer, head, wire_size, _HEAL_OFFER_DELAY, sync=True
            )
            offered += 1
        return offered

    def _link_up(self, source_id: Optional[str], destination_id: str) -> bool:
        if destination_id in self._offline:
            return False
        if source_id is None:
            return True
        if source_id in self._offline:
            return False
        if self._partition_of is not None:
            if self._partition_of.get(source_id, -1) != self._partition_of.get(
                destination_id, -1
            ):
                return False
        return True

    # -- link timing ----------------------------------------------------------------

    def _link_delay(
        self,
        source_id: str,
        destination_id: str,
        wire_size: int,
        latency_model: LatencyModel,
        now: float,
    ) -> float:
        """Sampled latency, scaled per edge, plus FIFO serialisation delay
        for a message entering the link at ``now``."""
        delay = latency_model.sample(source_id, destination_id)
        latency_scale = self._latency_scale
        if latency_scale:
            scale = latency_scale.get(edge_key(source_id, destination_id))
            if scale is not None:
                delay *= scale
        bandwidth = self.bandwidth
        if bandwidth is not None:
            link = (source_id, destination_id)
            # One global rate unless the model overrides specific links.
            rate = (
                bandwidth.rate(source_id, destination_id)
                if bandwidth.per_link
                else bandwidth.bytes_per_second
            )
            serialisation = wire_size / rate
            departure = max(now, self._link_free_at.get(link, now))
            self._link_free_at[link] = departure + serialisation
            delay = (departure - now) + serialisation + delay
        return delay

    # -- transaction gossip -----------------------------------------------------------

    def broadcast_transaction(self, origin: Peer, transaction: Transaction) -> None:
        """Gossip ``transaction`` from ``origin``.

        Zero-copy: every receiver gets the *same* frozen transaction object
        (peers must never mutate gossiped artefacts); the wire bytes are
        memoised per object and only their size is accounted per hop.
        """
        self.stats.transactions_broadcast += 1
        if self._churn_active and origin.peer_id in self._offline:
            return
        wire_size = len(wire_encoding(transaction))
        if self._adjacency is not None:
            self._flood_transaction(origin.peer_id, None, transaction, wire_size)
            return
        for peer in self._peers.values():
            if peer is origin:
                continue
            if self._churn_active and not self._link_up(origin.peer_id, peer.peer_id):
                self.stats.transactions_dropped_link += 1
                continue
            if self.transaction_loss_rate and self._rng.random() < self.transaction_loss_rate:
                self.stats.transactions_dropped += 1
                continue
            self._send_transaction(origin.peer_id, peer, transaction, wire_size)

    def _flood_transaction(
        self, from_id: str, exclude_id: Optional[str], transaction: Transaction, wire_size: int
    ) -> None:
        for neighbor_id in self._adjacency.get(from_id, ()):
            if neighbor_id == exclude_id:
                continue
            peer = self._peers.get(neighbor_id)
            if peer is None:
                continue
            if self._churn_active and not self._link_up(from_id, neighbor_id):
                self.stats.transactions_dropped_link += 1
                continue
            if self.transaction_loss_rate and self._rng.random() < self.transaction_loss_rate:
                self.stats.transactions_dropped += 1
                continue
            self._send_transaction(from_id, peer, transaction, wire_size)

    def _send_transaction(
        self, sender_id: str, peer: Peer, transaction: Transaction, wire_size: int
    ) -> None:
        """One transaction hop: fault gate, link delay, byte accounting,
        scheduled delivery.  Fault decisions come from the injector's own
        seeded streams — never from ``self._rng`` — so the legacy loss and
        latency draw order is identical with faults on or off."""
        effect = None
        faults = self._faults
        now = self.simulator.now
        # Inline window gate: outside every fault window the seam call is
        # provably a no-op (inactive faults never draw), so skip it.
        if faults is not None and faults.window_start <= now < faults.window_until:
            effect = faults.on_message("tx", sender_id, peer.peer_id, now)
        if effect is not None and effect.drop:
            self.stats.transactions_dropped += 1
            return
        delay = self._link_delay(sender_id, peer.peer_id, wire_size, self.latency, now)
        corrupt = False
        if effect is not None:
            delay += effect.extra_delay
            corrupt = effect.corrupt
        self.stats.transaction_bytes += wire_size
        schedule_at = self.simulator.schedule_at
        deliver = self._deliver_transaction
        schedule_at(now + delay, deliver, sender_id, peer, transaction, wire_size, corrupt)
        if effect is not None and effect.duplicate_gap is not None:
            # The duplicated copy ships real bytes too, trailing the first.
            self.stats.transaction_bytes += wire_size
            schedule_at(
                now + (delay + effect.duplicate_gap),
                deliver, sender_id, peer, transaction, wire_size, corrupt,
            )

    def _deliver_transaction(
        self,
        sender_id: str,
        peer: Peer,
        transaction: Transaction,
        wire_size: int,
        corrupt: bool,
    ) -> None:
        if self._churn_active and peer.peer_id in self._offline:
            self.stats.transactions_dropped_link += 1
            return
        if corrupt:
            # Truncated in flight: the frame crossed the wire (bytes were
            # accounted at send) but fails to decode, so the receiver
            # discards it before pool admission — and never relays it.
            return
        self.stats.transaction_deliveries += 1
        accepted = peer.receive_transaction(transaction, self.simulator.now)
        tracer = _obs.TRACER
        if tracer is not None:
            tracer.event(
                "gossip.tx",
                peer=peer.peer_id,
                sender=sender_id,
                tx=transaction.hash,
                accepted=accepted,
            )
        # Store-and-forward: relay on first admission only, never back
        # along the edge the transaction arrived on.
        if accepted and self._adjacency is not None:
            self._flood_transaction(peer.peer_id, sender_id, transaction, wire_size)

    # -- block gossip -----------------------------------------------------------------

    def _record_block_born(self, block_hash: bytes) -> None:
        """Note when ``block_hash`` first hit the wire (propagation birth time).

        Under a history limit only the newest entries are kept — a delivery
        racing in behind the window simply contributes no propagation sample,
        exactly like a block that was already pruned from the chains.
        """
        self._block_born.setdefault(block_hash, self.simulator.now)
        if self.history_limit is not None:
            while len(self._block_born) > 4 * self.history_limit:
                self._block_born.pop(next(iter(self._block_born)))

    def _mark_seen(self, peer_id: str, block_hash: bytes) -> None:
        """Record ``peer_id`` having seen ``block_hash`` for flood dedup.

        Under a history limit each peer's dedup set is windowed to the newest
        ``history_limit`` hashes; an evicted hash redelivered much later is
        re-imported (and deduplicated by the chain itself) instead of pinning
        every hash for the whole run.
        """
        seen = self._seen_blocks.get(peer_id)
        if seen is None:
            seen = self._seen_blocks[peer_id] = set()
        elif block_hash in seen:
            return
        seen.add(block_hash)
        if self.history_limit is None:
            return
        order = self._seen_order.setdefault(peer_id, deque())
        order.append(block_hash)
        while len(order) > self.history_limit:
            seen.discard(order.popleft())

    def broadcast_block(self, origin: Optional[Peer], block: Block) -> None:
        """Gossip ``block`` from ``origin`` (which imports it immediately).

        Zero-copy, like :meth:`broadcast_transaction`: one frozen block
        object for every receiver, one memoised wire encoding per block.
        """
        self.stats.blocks_broadcast += 1
        self._record_block_born(block.hash)
        wire_size = len(wire_encoding(block))
        if self._adjacency is not None and origin is not None:
            # The miner imports its own block with no network delay.
            self._mark_seen(origin.peer_id, block.hash)
            origin.import_block(block)
            if not (self._churn_active and origin.peer_id in self._offline):
                self._flood_block(origin.peer_id, None, block, wire_size)
            return
        origin_id = origin.peer_id if origin is not None else None
        for peer in self._peers.values():
            if origin is not None and peer is origin:
                # The miner imports its own block with no network delay.
                peer.receive_block(block)
                continue
            if self._churn_active and not self._link_up(origin_id, peer.peer_id):
                self.stats.blocks_dropped_link += 1
                continue
            if self.block_loss_rate and self._rng.random() < self.block_loss_rate:
                self.stats.blocks_dropped += 1
                continue
            self._send_block(
                origin_id,
                origin_id if origin_id is not None else "network",
                peer,
                block,
                wire_size,
            )

    def _flood_block(
        self, from_id: str, exclude_id: Optional[str], block: Block, wire_size: int
    ) -> None:
        for neighbor_id in self._adjacency.get(from_id, ()):
            if neighbor_id == exclude_id:
                continue
            peer = self._peers.get(neighbor_id)
            if peer is None:
                continue
            if self._churn_active and not self._link_up(from_id, neighbor_id):
                self.stats.blocks_dropped_link += 1
                continue
            if self.block_loss_rate and self._rng.random() < self.block_loss_rate:
                self.stats.blocks_dropped += 1
                continue
            self._send_block(from_id, from_id, peer, block, wire_size)

    def _send_block(
        self,
        sender_id: Optional[str],
        delay_source: str,
        peer: Peer,
        block: Block,
        wire_size: int,
    ) -> None:
        """One block hop: fault gate, link delay, byte accounting, scheduled
        delivery.  ``delay_source`` differs from ``sender_id`` only on the
        legacy origin-less broadcast ("network").  Fault decisions never
        touch ``self._rng`` (see :meth:`_send_transaction`)."""
        effect = None
        faults = self._faults
        now = self.simulator.now
        # Same inline window gate as the transaction seam.
        if faults is not None and faults.window_start <= now < faults.window_until:
            effect = faults.on_message("block", delay_source, peer.peer_id, now)
        if effect is not None and effect.drop:
            self.stats.blocks_dropped += 1
            return
        delay = self._link_delay(delay_source, peer.peer_id, wire_size, self.block_latency, now)
        corrupt = False
        if effect is not None:
            delay += effect.extra_delay
            corrupt = effect.corrupt
        self.stats.block_bytes += wire_size
        self._schedule_block_delivery(sender_id, peer, block, wire_size, delay, corrupt=corrupt)
        if effect is not None and effect.duplicate_gap is not None:
            self.stats.block_bytes += wire_size
            self._schedule_block_delivery(
                sender_id, peer, block, wire_size, delay + effect.duplicate_gap, corrupt=corrupt
            )

    def _schedule_block_delivery(
        self,
        sender_id: Optional[str],
        peer: Peer,
        block: Block,
        wire_size: int,
        delay: float,
        sync: bool = False,
        corrupt: bool = False,
    ) -> None:
        """The one seam every block hop (flood, range sync, heal) goes through."""
        simulator = self.simulator
        simulator.schedule_at(
            simulator.now + delay, self._deliver_block, sender_id, peer, block, wire_size, sync, corrupt
        )

    def _deliver_block(
        self,
        sender_id: Optional[str],
        peer: Peer,
        block: Block,
        wire_size: int,
        sync: bool = False,
        corrupt: bool = False,
    ) -> None:
        if self._churn_active and peer.peer_id in self._offline:
            self.stats.blocks_dropped_link += 1
            return
        if corrupt:
            # Decode failure at the receiver: discarded before dedup, import,
            # and relay — so a later clean copy of the same block still lands
            # normally, and an all-corrupt hop set heals via the orphan →
            # range-sync path when the next block arrives.
            return
        self.stats.block_deliveries += 1
        tracer = _obs.TRACER
        if tracer is not None:
            tracer.event(
                "gossip.block",
                peer=peer.peer_id,
                sender=sender_id,
                block=block.hash,
                number=block.number,
                sync=sync,
            )
        seen = self._seen_blocks.get(peer.peer_id)
        if seen is not None and block.hash in seen:
            # Dedup by object hash: a block the peer already has is dropped
            # here, before any validation replay.
            self.stats.block_duplicates += 1
            if (
                self._adjacency is not None
                and sender_id is not None
                and block.number > peer.chain.height
                and peer.chain.block_by_hash(block.hash) is None
            ):
                # Still orphaned on redelivery: the first sync attempt went
                # to whichever neighbour flooded the block first, which after
                # a partition heals may be just as far behind.  Each redundant
                # delivery is a fresh chance to sync from a better provider.
                self._request_ancestors(peer, sender_id, block)
            return
        self._mark_seen(peer.peer_id, block.hash)
        status, imported = peer.import_block(block)
        if status == IMPORT_ORPHANED:
            self.stats.blocks_orphaned += 1
            if sender_id is not None:
                self._request_ancestors(peer, sender_id, block)
        elif status == IMPORT_IMPORTED and not sync:
            now = self.simulator.now
            for imported_block in imported:
                born = self._block_born.get(imported_block.hash)
                if born is not None:
                    self._propagation_samples.append(now - born)
        if self._adjacency is not None and not sync and status != IMPORT_DUPLICATE:
            # Store-and-forward on first receipt, whatever the local import
            # verdict: a block this peer cannot use yet may still be exactly
            # what its neighbours are waiting for.
            self._flood_block(peer.peer_id, sender_id, block, wire_size)

    # -- ancestor sync ------------------------------------------------------------------

    def _request_ancestors(self, requester: Peer, provider_id: str, upto: Block) -> None:
        """Fetch the blocks between ``requester``'s head and an orphan from
        the neighbour that sent it (range sync, devp2p style).  One request
        is in flight per requester at a time, so latency-reordered orphans
        do not trigger a request storm."""
        now = self.simulator.now
        if self._sync_inflight.get(requester.peer_id, -1.0) > now:
            return
        provider = self._peers.get(provider_id)
        if provider is None:
            return
        if self._churn_active and not self._link_up(requester.peer_id, provider_id):
            return
        start = requester.chain.height + 1
        end = min(upto.number - 1, provider.chain.height)
        if end < start:
            return
        if start < provider.chain.earliest_block_number:
            # Retention pruned the provider's history below the requester's
            # head: nothing it could serve would connect, so don't burn a
            # request (another, less-pruned neighbour may still answer).
            self.stats.sync_pruned_misses += 1
            return
        self.stats.sync_requests += 1
        tracer = _obs.TRACER
        if tracer is not None:
            tracer.event(
                "sync.range",
                peer=requester.peer_id,
                provider=provider_id,
                start=start,
                end=end,
            )
        # The request itself crosses the link once; responses stream back
        # through the same FIFO pipe as any other block.
        request_delay = self._link_delay(requester.peer_id, provider_id, 64, self.latency, now)
        latest = now
        for number in range(start, end + 1):
            ancestor = provider.chain.block_by_number(number)
            ancestor_size = len(wire_encoding(ancestor))
            delay = request_delay + self._link_delay(
                provider_id, requester.peer_id, ancestor_size, self.block_latency, now
            )
            self.stats.block_bytes += ancestor_size
            self.stats.sync_blocks += 1
            self._schedule_block_delivery(
                provider_id, requester, ancestor, ancestor_size, delay, sync=True
            )
            latest = max(latest, now + delay)
        self._sync_inflight[requester.peer_id] = latest

    # -- measurement --------------------------------------------------------------------

    def propagation_samples(self) -> List[float]:
        """Per-import block propagation delays (origin's own import excluded)."""
        return list(self._propagation_samples)

    def propagation_summary(self) -> Dict[str, Any]:
        """A JSON-ready digest of propagation behaviour for this run."""
        samples = sorted(self._propagation_samples)
        peer_count = len(self._peers)
        if self.topology is not None:
            edges = self.topology.edge_count
            mean_degree = self.topology.mean_degree
            topology_name = self.topology.name
        else:
            edges = peer_count * (peer_count - 1) // 2
            mean_degree = float(peer_count - 1) if peer_count else 0.0
            topology_name = "full_mesh"
        stats = self.stats
        return {
            "topology": topology_name,
            "peers": peer_count,
            "edges": edges,
            "mean_degree": mean_degree,
            "block_deliveries": stats.block_deliveries,
            "block_duplicates": stats.block_duplicates,
            "blocks_orphaned": stats.blocks_orphaned,
            "orphan_rate": (
                stats.blocks_orphaned / stats.block_deliveries
                if stats.block_deliveries
                else 0.0
            ),
            "sync_requests": stats.sync_requests,
            "sync_blocks": stats.sync_blocks,
            "propagation_samples": len(samples),
            "block_propagation_p50": percentile(samples, 0.50, method="nearest_index", presorted=True),
            "block_propagation_p95": percentile(samples, 0.95, method="nearest_index", presorted=True),
            "transaction_deliveries": stats.transaction_deliveries,
            "transaction_bytes": stats.transaction_bytes,
            "block_bytes": stats.block_bytes,
            "links_dropped": stats.transactions_dropped_link + stats.blocks_dropped_link,
        }
