"""Discrete-event simulator: the clock every peer, miner, and client shares.

The paper's phenomena are entirely timing-structural — submission intervals,
gossip delays, block intervals, and the order things land in the pool — so a
single-threaded event loop reproduces them faithfully and deterministically
(see DESIGN.md §2 on why this substitution is sound for this paper).
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional

__all__ = ["Simulator", "ScheduledEvent"]

Callback = Callable[..., None]


class ScheduledEvent(list):
    """A heap entry ``[time, sequence, callback, args]``.

    A ``list`` so ``heapq`` orders entries in C; sequence numbers are unique,
    so a comparison stops at ``sequence`` and never reaches the callback.
    Cancelling clears the callback slot.
    """

    __slots__ = ()

    @property
    def time(self) -> float:
        return self[0]

    @property
    def sequence(self) -> int:
        return self[1]

    @property
    def cancelled(self) -> bool:
        return self[2] is None

    def cancel(self) -> None:
        """Prevent the callback from firing when the event is popped."""
        self[2] = None


class Simulator:
    """A minimal, deterministic discrete-event loop."""

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = start_time
        self._queue: List[ScheduledEvent] = []
        self._sequence = itertools.count()
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def reset(self, start_time: float = 0.0) -> None:
        """Drain the event heap and rewind to a just-constructed state.

        Warm sweep workers reuse one Simulator across trials; after a reset
        the instance is indistinguishable from ``Simulator(start_time)`` —
        same clock, empty queue, sequence numbers restarting at zero — so a
        reused simulator reproduces a fresh one's event order exactly.
        """
        self._now = start_time
        self._queue.clear()
        self._sequence = itertools.count()
        self.events_processed = 0

    # -- scheduling -----------------------------------------------------------

    def schedule_at(self, time: float, callback: Callback, *args: Any) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at absolute simulation time ``time``."""
        if time < self._now:
            raise ValueError(f"cannot schedule an event in the past ({time} < {self._now})")
        event = ScheduledEvent((time, next(self._sequence), callback, args))
        heappush(self._queue, event)
        return event

    def schedule_in(self, delay: float, callback: Callback, *args: Any) -> ScheduledEvent:
        """Schedule ``callback(*args)`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.schedule_at(self._now + delay, callback, *args)

    # -- running ---------------------------------------------------------------

    def step(self) -> bool:
        """Process the next event; returns False when the queue is empty."""
        queue = self._queue
        while queue:
            time, _sequence, callback, args = heappop(queue)
            if callback is None:  # cancelled
                continue
            self._now = time
            callback(*args)
            self.events_processed += 1
            return True
        return False

    def run_until(self, end_time: float, max_events: Optional[int] = None) -> int:
        """Run events with time <= ``end_time``; returns how many were processed."""
        processed = 0
        queue = self._queue
        while max_events is None or processed < max_events:
            # Drop cancelled heads first: step() would skip past them to an
            # event that may lie beyond end_time.
            while queue and queue[0][2] is None:
                heappop(queue)
            if not queue or queue[0][0] > end_time:
                # No more events at or before end_time: advance the clock to it.
                self._now = max(self._now, end_time)
                break
            self.step()
            processed += 1
        return processed

    def run(self, max_events: int = 10_000_000) -> int:
        """Run until the queue drains (or the event cap is hit)."""
        processed = 0
        while self._queue and processed < max_events:
            if self.step():
                processed += 1
        return processed

    def run_while(self, condition: Callable[[], bool], max_events: int = 10_000_000) -> int:
        """Run while ``condition()`` holds and events remain."""
        processed = 0
        while self._queue and condition() and processed < max_events:
            if self.step():
                processed += 1
        return processed

    # -- introspection ------------------------------------------------------------

    def pending_events(self) -> int:
        return sum(1 for event in self._queue if not event.cancelled)
