"""The arithmetic behind every number the benchmark reports.

Pure functions only (no clock, no I/O), so ``test_bench_harness.py`` can
pin each rule down without running a simulation.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence, Tuple

Span = Tuple[str, float, float, int]
"""``(name, start, end, parent)``: ``parent`` indexes the enclosing span on
the same thread within the same list, ``-1`` for a root."""

PERCENTILE_LADDER = ((0.50, 2), (0.90, 10), (0.95, 20), (0.99, 100), (0.999, 1000))
"""``(fraction, n)``: one sample in ``n`` lies beyond the percentile."""
MIN_SAMPLES_BEYOND = 10


def summarise(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, min and sample count of ``values`` (non-empty)."""
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {
        "median": statistics.median(ordered),
        "q1": q1,
        "q3": q3,
        "min": ordered[0],
        "n": len(ordered),
    }


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median — the steadiness
    figure the benchmark's bounds are set against."""
    digest = summarise(values)
    return (digest["q3"] - digest["q1"]) / digest["median"] if digest["median"] else 0.0


def highest_percentile(sample_count: int) -> float:
    """The highest rung of the ladder with at least ten samples beyond it.

    A p99 over 300 samples rests on three observations; reporting it as a
    tail would be reporting noise.  Falls back to the median when even p90
    has fewer than ten samples above it.
    """
    supported = PERCENTILE_LADDER[0][0]
    for fraction, one_in in PERCENTILE_LADDER:
        if sample_count >= MIN_SAMPLES_BEYOND * one_in:
            supported = fraction
    return supported


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (non-empty)."""
    ordered = sorted(samples)
    index = max(int(math.ceil(fraction * len(ordered))) - 1, 0)
    return ordered[min(index, len(ordered) - 1)]


def tail(samples: Sequence[float], wanted: float = 0.99) -> Tuple[float, float]:
    """``(fraction, value)`` of the tail the sample count supports: the
    ``wanted`` percentile when at least ten samples lie beyond it, else the
    highest supported rung below it."""
    fraction = min(wanted, highest_percentile(len(samples)))
    if fraction == PERCENTILE_LADDER[0][0]:
        return fraction, statistics.median(samples)
    return fraction, percentile(samples, fraction)


def normalise(raw: float, cal_observed_s: float, cal_ref_s: float) -> float:
    """Scale a time taken while the calibration kernel cost
    ``cal_observed_s`` to what it would have been at ``cal_ref_s``: a host
    running the kernel 20 % slower than the reference has its times cut by
    the same 20 %."""
    return raw * cal_ref_s / cal_observed_s


def scale_to_size(raw: float, units_done: int, units_stated: int) -> float:
    """Time for the stated workload size, from a repeat that did
    ``units_done`` units (the seed moves the simulated work a little; the
    metric is quoted at one size)."""
    return raw * units_stated / units_done


def open_loop_latency(due: float, done: float) -> float:
    """Open-loop latency runs from when the request was *due*, not from when
    the generator got round to sending it: a request stuck behind a slow
    predecessor pays for the wait."""
    return done - due


def self_times(
    spans: Sequence[Optional[Span]], window: Optional[Tuple[float, float]] = None
) -> Dict[str, Dict[str, float]]:
    """Per-name ``{calls, total_s, self_s}`` over one thread's span list.

    A span's self time is its duration minus the part its direct children
    cover; children of one parent run one after another on one thread, so
    their durations add.  ``None`` entries (spans still open when the list
    was snapshotted) are skipped.  With ``window``, only spans that start
    inside ``[window[0], window[1]]`` are tallied.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span is None:
            continue
        _name, start, end, parent = span
        if parent >= 0:
            child_time[parent] += end - start
    totals: Dict[str, Dict[str, float]] = {}
    for index, span in enumerate(spans):
        if span is None:
            continue
        name, start, end, _parent = span
        if window is not None and not window[0] <= start <= window[1]:
            continue
        entry = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += (end - start) - child_time[index]
    return totals


def merge_self_times(tables: Sequence[Dict[str, Dict[str, float]]]) -> Dict[str, Dict[str, float]]:
    """Sum per-thread :func:`self_times` tables into one."""
    merged: Dict[str, Dict[str, float]] = {}
    for table in tables:
        for name, entry in table.items():
            target = merged.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key, value in entry.items():
                target[key] += value
    return merged
