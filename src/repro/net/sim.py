"""Discrete-event simulator: the clock every peer, miner, and client shares.

The paper's phenomena are entirely timing-structural — submission intervals,
gossip delays, block intervals, and the order things land in the pool — so a
single-threaded event loop reproduces them faithfully and deterministically:
what a transaction's outcome depends on is which state it executes against,
and that is fixed by the order in which events land, not by wall-clock
concurrency.

A scheduled event is a plain ``list`` ``[time, sequence, callback, args]``:
``heapq`` orders exact lists in C, and sequence numbers are unique, so a
comparison stops at ``sequence`` and never reaches the callback.
:meth:`Simulator.cancel` clears the callback slot; a cleared entry is skipped
when popped.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional

__all__ = ["Simulator"]

Callback = Callable[..., None]


class Simulator:
    """A minimal, deterministic discrete-event loop.

    ``now`` is the current simulation time in seconds: a plain attribute the
    gossip path reads on every hop, written only by the loop itself.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self.now = start_time
        self._queue: List[list] = []
        self._sequence = itertools.count()
        self.events_processed = 0

    def reset(self, start_time: float = 0.0) -> None:
        """Drain the event heap and rewind to a just-constructed state.

        Warm sweep workers reuse one Simulator across trials; after a reset
        the instance is indistinguishable from ``Simulator(start_time)`` —
        same clock, empty queue, sequence numbers restarting at zero — so a
        reused simulator reproduces a fresh one's event order exactly.
        """
        self.now = start_time
        self._queue.clear()
        self._sequence = itertools.count()
        self.events_processed = 0

    def drain(self) -> None:
        """Drop every queued event, keeping the clock and the counters.

        A queued callback is bound to whatever scheduled it, and that object
        holds this simulator; draining at the end of a run leaves a finished
        trial free of reference cycles.
        """
        self._queue.clear()

    # -- scheduling -----------------------------------------------------------

    def schedule_at(self, time: float, callback: Callback, *args: Any) -> list:
        """Schedule ``callback(*args)`` at absolute simulation time ``time``
        and return its entry.  A time before ``now``, or NaN, is refused."""
        if not time >= self.now:
            raise ValueError(f"cannot schedule an event at {time}: the clock is at {self.now}")
        entry = [time, next(self._sequence), callback, args]
        heappush(self._queue, entry)
        return entry

    def schedule_in(self, delay: float, callback: Callback, *args: Any) -> list:
        """Schedule ``callback(*args)`` ``delay`` seconds from now."""
        if not delay >= 0:
            raise ValueError("delay must be non-negative")
        return self.schedule_at(self.now + delay, callback, *args)

    def cancel(self, entry: list) -> None:
        """Prevent a scheduled entry's callback from firing when it is popped."""
        entry[2] = None

    # -- running ---------------------------------------------------------------

    def step(self) -> bool:
        """Process the next event; returns False when the queue is empty."""
        queue = self._queue
        while queue:
            time, _sequence, callback, args = heappop(queue)
            if callback is None:  # cancelled
                continue
            self.now = time
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
                self.now = max(self.now, end_time)
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
        return sum(1 for entry in self._queue if entry[2] is not None)
