"""The fault injector: spec-frozen faults bound to deterministic RNG streams.

One injector serves one trial.  It is built from the spec's frozen
``(name, params)`` fault entries plus the trial's :class:`SeedPlan`; every
fault gets its own ``random.Random`` seeded from
``seeds.derived("faults", index, name)``, so fault decisions are a pure
function of the spec — byte-identical whether the trial runs serially, in a
sweep worker, or resumed from a checkpoint — and adding or removing one
fault entry reshuffles exactly that entry's stream and nothing else.

The message seam is a per-kind table: a hop only evaluates the faults that
target its kind.  An off-target or inactive fault never touches its RNG, so
skipping it leaves every decision stream unchanged.

Every injection is counted by fault kind and emitted as a ``fault.*``
event through :mod:`repro.obs` when a tracer is active; the engine also
registers the counters as a per-trial ``faults`` probe.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs import runtime as _obs
from .message import FaultEffect, MessageFault
from .registry import build_fault

__all__ = ["FaultInjector"]

class FaultInjector:
    """Applies a spec's faults at the network seams, deterministically."""

    def __init__(self, faults: Sequence[Tuple[str, object, random.Random]]) -> None:
        # Entries are (registered name, constructed fault, its own RNG).
        message_faults: List[Tuple[str, MessageFault, random.Random]] = []
        self._peer_faults: List[Tuple[str, object]] = []
        for name, fault, rng in faults:
            if getattr(fault, "category", None) == "message":
                message_faults.append((name, fault, rng))
            else:
                self._peer_faults.append((name, fault))
        # Message kind -> the faults that target it, in spec order.
        self._by_kind: Dict[str, Tuple[Tuple[str, MessageFault, random.Random], ...]] = {
            kind: tuple(entry for entry in message_faults if entry[1].target in (kind, "both"))
            for kind in ("tx", "block")
        }
        self.counts: Dict[str, int] = {}
        self.injections = 0
        self.protected_block_peers: frozenset = frozenset()
        # The union of the message faults' [start, until) windows.  The
        # network checks these two floats inline before calling the seam at
        # all, so a hop outside every window — dormant faults, or a healed
        # network after ``until`` — costs two comparisons, not a call chain.
        # Skipping the call is draw-free by construction: an inactive fault
        # never touches its RNG, so the decision streams are byte-identical.
        # Fault constructors refuse non-finite bounds, so neither is NaN.
        self.window_start = min((fault.start for _, fault, _ in message_faults), default=float("inf"))
        self.window_until = max(
            (float("inf") if fault.until is None else fault.until for _, fault, _ in message_faults),
            default=float("-inf"),
        )

    @classmethod
    def from_spec(cls, entries, seeds) -> "FaultInjector":
        """Build from frozen spec entries under ``seeds`` (a SeedPlan)."""
        faults = []
        for index, (name, params) in enumerate(entries):
            fault = build_fault(name, dict(params))
            rng = random.Random(seeds.derived("faults", index, name))
            faults.append((name, fault, rng))
        return cls(faults)

    def protect_block_peers(self, peer_ids) -> None:
        """Exempt ``peer_ids``, as receivers, from block-message faults.

        The chain model is append-only — there is no reorg — so a miner that
        misses (or late-imports) another miner's block mines a divergent
        lineage that can never heal.  Crash faults already refuse miner
        targets for exactly this reason; the engine routes the miner set
        here so drop/corrupt/delay never touch miner-bound block deliveries.
        Transaction faults still apply to miners: a pool cannot fork the
        chain.
        """
        self.protected_block_peers = frozenset(peer_ids)

    # -- message seam -------------------------------------------------------------

    def on_message(
        self, message_kind: str, sender_id: str, receiver_id: str, now: float
    ) -> Optional[FaultEffect]:
        """Decide what happens to one gossip hop; ``None`` = deliver clean.

        Each fault targeting ``message_kind`` whose window covers ``now``
        draws once from its own stream (independent of the others), so
        per-fault decision sequences — and the ``fault.*`` events — depend
        only on the spec.
        """
        if now < self.window_start or now >= self.window_until:
            return None
        if message_kind == "block" and receiver_id in self.protected_block_peers:
            return None
        effect: Optional[FaultEffect] = None
        for name, fault, rng in self._by_kind[message_kind]:
            if now < fault.start or (fault.until is not None and now >= fault.until):
                continue
            if rng.random() >= fault.rate:
                continue
            decision = fault.effect(rng)
            effect = decision if effect is None else effect.merge(decision)
            self._record(now, name, fault.action, message_kind, sender_id, receiver_id)
        return effect

    # -- peer faults --------------------------------------------------------------

    def schedule_peer_faults(self, simulator, network, miner_ids) -> None:
        """Schedule crash/restart events on the simulator.

        Validates targets eagerly: the peer must exist on the network and
        must not be a miner (a genesis-reset miner would fork the
        single-chain model — see :mod:`repro.faults.crash`).
        """
        for name, fault in self._peer_faults:
            peer_id = fault.peer
            if network._peers.get(peer_id) is None:
                raise ValueError(
                    f"fault {name!r} targets unknown peer {peer_id!r}; "
                    f"known: {sorted(network._peers)}"
                )
            if peer_id in miner_ids:
                raise ValueError(
                    f"fault {name!r} cannot crash miner {peer_id!r}: miners own "
                    "the block-production schedule"
                )
            simulator.schedule_at(
                fault.at,
                lambda name=name, fault=fault: self._crash(network, name, fault),
            )
            simulator.schedule_at(
                fault.restart_at,
                lambda name=name, fault=fault: self._restart(network, name, fault),
            )

    def _crash(self, network, name: str, fault) -> None:
        network.crash_peer(fault.peer)
        self._record(network.simulator.now, name, "crash", fault.peer, None, None)
        tracer = _obs.TRACER
        if tracer is not None:
            tracer.event("fault.crash", peer=fault.peer, fault=name)

    def _restart(self, network, name: str, fault) -> None:
        network.restart_peer(fault.peer)
        self._record(network.simulator.now, name, "restart", fault.peer, None, None)
        tracer = _obs.TRACER
        if tracer is not None:
            tracer.event("fault.restart", peer=fault.peer, fault=name)

    # -- accounting ---------------------------------------------------------------

    def _record(
        self,
        now: float,
        name: str,
        action: str,
        subject: str,
        sender_id: Optional[str],
        receiver_id: Optional[str],
    ) -> None:
        self.injections += 1
        self.counts[action] = self.counts.get(action, 0) + 1
        if action in ("crash", "restart"):
            return  # crash/restart emit their own richer events
        tracer = _obs.TRACER
        if tracer is not None:
            tracer.event(
                "fault.inject",
                fault=name,
                action=action,
                message=subject,
                sender=sender_id,
                receiver=receiver_id,
            )

    def stats_dict(self) -> Dict[str, int]:
        """Injection counters by kind, flat and sorted — the ``faults`` probe."""
        stats = {f"injected_{action}": count for action, count in self.counts.items()}
        stats["injections"] = self.injections
        return dict(sorted(stats.items()))

    def summary(self) -> Dict[str, Any]:
        """The JSON-ready digest the engine puts under ``extras["faults"]``."""
        return self.stats_dict()
