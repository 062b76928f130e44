"""A running measurement of how fast the host is, taken *while* work is timed.

On the class of machine this repo is measured on, the same deterministic
simulation takes 1.4 s or 2.7 s depending on what the host's other tenants
are doing, and the speed moves on a scale of seconds — faster than a spin
before and after a repeat can follow.  So the calibration kernels run
*inside* the timed window instead: an interval timer interrupts the main
thread every ``PERIOD_S`` and the handler times two fixed kernels, a walk
through a 512k-entry single-cycle permutation (it pays for cache misses the
way interpreter work on a large heap does) and an integer spin (it does
not).  Host slowness comes in both kinds, and the workloads feel them
differently: over 30-40 repeats each, dividing by the spin alone left an
inter-quartile spread of 6 % on ``figure2_sweep`` and 8 % on ``gossip_1k``,
by the walk alone 14 % and 7 %; the weighted geometric mean below was within
a point of each workload's own best (raw: 14-30 %).  That mean over a
repeat is the host's speed during the repeat; ``stats.normalise`` turns the
repeat's wall time into seconds at the reference speed ``cal_ref_s``.

Main thread only (signal handlers run there).  Children forked while the
sampler is on do not inherit the timer.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

PERIOD_S = 0.02
CHASE_STEPS = 1500
SPIN_STEPS = 4000
SPIN_WEIGHT = 0.75
"""Share of the spin in the geometric mean of the two kernel times."""
_PERMUTATION_SIZE = 1 << 19


def _single_cycle_permutation(size: int) -> List[int]:
    """``i -> (a*i + c) mod size`` with ``size`` a power of two, ``c`` odd and
    ``a % 4 == 1`` visits every index in one cycle (Hull-Dobell), in jumps
    long enough that the walk never settles into a cache-resident loop —
    and it is built in milliseconds, where a shuffle costs half a second."""
    mask = size - 1
    return [(1664525 * index + 1013904223) & mask for index in range(size)]


class HostSpeedSampler:
    """Times the calibration kernels every ``PERIOD_S`` while started."""

    def __init__(self) -> None:
        self._permutation = _single_cycle_permutation(_PERMUTATION_SIZE)
        self._position = 0
        self.chase_s: List[float] = []
        self.spin_s: List[float] = []
        self._previous_handler = None

    def _on_timer(self, _signum, _frame) -> None:
        # Thread CPU time, not wall: with client threads about, wall time
        # would also count the waits for the interpreter lock.
        clock = time.thread_time
        permutation, position, accumulator = self._permutation, self._position, 0
        started = clock()
        for _ in range(CHASE_STEPS):
            position = permutation[position]
        chased = clock()
        for step in range(SPIN_STEPS):
            accumulator = (accumulator * 31 + step) & 0xFFFFFFFF
        spun = clock()
        self._position = position
        self.chase_s.append(chased - started)
        self.spin_s.append(spun - chased)

    def start(self) -> None:
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous_handler is not None:
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None

    def mark(self) -> int:
        """A position in the sample stream, to hand back to :meth:`speed_since`."""
        return len(self.spin_s)

    def speed_since(self, mark: int) -> float:
        """The host's speed since ``mark`` as calibration seconds: the
        weighted geometric mean of the two kernels' mean times.  The kernels
        are timed on the spot when the window was too short for the timer."""
        if len(self.spin_s) == mark:
            self._on_timer(None, None)
        spin = statistics.fmean(self.spin_s[mark:])
        chase = statistics.fmean(self.chase_s[mark:])
        return spin**SPIN_WEIGHT * chase ** (1.0 - SPIN_WEIGHT)


def measure_reference(seconds: float = 5.0) -> float:
    """Calibration seconds on this host over ``seconds`` of busy waiting,
    the figure ``baseline.json`` stores as ``cal_ref_s``."""
    sampler = HostSpeedSampler()
    sampler.start()
    try:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            pass
    finally:
        sampler.stop()
    return sampler.speed_since(0)


if __name__ == "__main__":
    print(f"cal_ref_s = {measure_reference():.6g}")
