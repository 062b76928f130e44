"""Message-level faults: what a flaky wire does to one gossip hop.

Every fault here is evaluated at the *send* seam of
:class:`repro.net.network.Network` — once per scheduled delivery hop of the
message kind it targets (``tx``, ``block`` or ``both``), for both direct
broadcast and topology flood — and draws exclusively from its own
injector-owned RNG stream, never from the network's loss/latency RNGs.
Inside its ``[start, until)`` window a fault draws once per matching hop and
fires when that draw is below ``rate``; only then does :meth:`effect` draw
the effect's own parameters (see :meth:`repro.faults.FaultInjector.on_message`).
With no faults installed the network takes a single dead branch per hop, so
the default path (and the committed golden checksums) is untouched.

The effects compose per hop: ``drop`` dominates everything; otherwise extra
delays add up, ``duplicate`` schedules a second copy, and ``corrupt`` marks
the frame as truncated in flight — the receiver fails to decode it and
discards it before any protocol handling (no dedup mark, no relay), exactly
like a devp2p frame that fails its RLP decode.  A corrupted block is healed
later by the ordinary orphan → range-sync path when the next block arrives.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

from .registry import register_fault

__all__ = [
    "FaultEffect",
    "MessageFault",
    "DropFault",
    "DuplicateFault",
    "DelayFault",
    "CorruptFault",
]

_TARGETS = ("tx", "block", "both")


def _finite(label: str, value: float) -> None:
    """Refuse NaN and infinities: a NaN window bound silently disables every
    message fault (the injector's window union turns NaN), and a NaN or
    infinite delay would put a non-finite time on the event heap."""
    if not math.isfinite(value):
        raise ValueError(f"fault {label} must be a finite number, got {value!r}")


@dataclass
class FaultEffect:
    """The composed outcome of every message fault that fired on one hop."""

    drop: bool = False
    corrupt: bool = False
    extra_delay: float = 0.0
    duplicate_gap: Optional[float] = None
    """Schedule a second copy this many seconds after the first, or never."""

    def merge(self, other: "FaultEffect") -> "FaultEffect":
        self.drop = self.drop or other.drop
        self.corrupt = self.corrupt or other.corrupt
        self.extra_delay += other.extra_delay
        if other.duplicate_gap is not None:
            self.duplicate_gap = (
                other.duplicate_gap
                if self.duplicate_gap is None
                else max(self.duplicate_gap, other.duplicate_gap)
            )
        return self


class MessageFault:
    """Base for per-hop faults: a firing rate, a message target, a window.

    ``start``/``until`` bound the fault in simulated time — the chaos
    experiment relies on ``until`` to let the network heal: once faults
    cease, ordinary gossip plus range sync must reconverge every peer.
    ``until=None`` keeps the fault on for the rest of the run; every bound
    given must be finite.
    """

    category = "message"
    action = "?"  # the label this fault's injections are counted under

    def __init__(
        self,
        rate: float,
        target: str = "both",
        start: float = 0.0,
        until: Optional[float] = None,
    ) -> None:
        if not 0.0 < rate <= 1.0:
            raise ValueError("fault rate must be in (0, 1]")
        if target not in _TARGETS:
            raise ValueError(f"fault target must be one of {_TARGETS}, got {target!r}")
        _finite("start", start)
        if start < 0.0:
            raise ValueError("fault start cannot be negative")
        if until is not None:
            _finite("until", until)
            if until <= start:
                raise ValueError("fault window must end after it starts")
        self.rate = rate
        self.target = target
        self.start = start
        self.until = until

    def effect(self, rng: random.Random) -> FaultEffect:  # pragma: no cover
        """What one firing does; draws any parameters it needs from ``rng``."""
        raise NotImplementedError


@register_fault("drop")
class DropFault(MessageFault):
    """Lose the message on this hop (the paper's "transactions sent may be
    lost due to network failures"), accounted separately from the legacy
    loss-rate model so fault traces stay attributable."""

    action = "drop"

    def effect(self, rng: random.Random) -> FaultEffect:
        return FaultEffect(drop=True)


@register_fault("duplicate")
class DuplicateFault(MessageFault):
    """Deliver the message twice: the second copy lands ``spread``-jittered
    later and must be shrugged off by pool/chain dedup."""

    action = "duplicate"

    def __init__(
        self,
        rate: float,
        target: str = "both",
        start: float = 0.0,
        until: Optional[float] = None,
        spread: float = 0.5,
    ) -> None:
        super().__init__(rate, target=target, start=start, until=until)
        _finite("spread", spread)
        if spread <= 0.0:
            raise ValueError("duplicate spread must be positive seconds")
        self.spread = spread

    def effect(self, rng: random.Random) -> FaultEffect:
        return FaultEffect(duplicate_gap=rng.uniform(0.0, self.spread))


@register_fault("delay")
class DelayFault(MessageFault):
    """Hold the message back ``extra`` (+ jitter) seconds — enough to reorder
    it behind messages sent later down faster links."""

    action = "delay"

    def __init__(
        self,
        rate: float,
        target: str = "both",
        start: float = 0.0,
        until: Optional[float] = None,
        extra: float = 0.5,
        jitter: float = 0.5,
    ) -> None:
        super().__init__(rate, target=target, start=start, until=until)
        _finite("extra", extra)
        _finite("jitter", jitter)
        if extra < 0.0 or jitter < 0.0:
            raise ValueError("delay extra/jitter cannot be negative")
        if extra == 0.0 and jitter == 0.0:
            raise ValueError("delay fault needs a positive extra or jitter")
        self.extra = extra
        self.jitter = jitter

    def effect(self, rng: random.Random) -> FaultEffect:
        jitter = rng.uniform(0.0, self.jitter) if self.jitter else 0.0
        return FaultEffect(extra_delay=self.extra + jitter)


@register_fault("corrupt")
class CorruptFault(MessageFault):
    """Truncate the frame in flight: it still crosses the wire (bytes are
    accounted) but the receiver rejects it at decode and processes nothing."""

    action = "corrupt"

    def effect(self, rng: random.Random) -> FaultEffect:
        return FaultEffect(corrupt=True)
