"""State throughput, transaction efficiency, and latency metrics (Section III-A).

Blockchains include failed transactions in the ledger, so raw throughput
(transactions committed per second) overstates useful work.  The paper's
**state throughput** ``T_state`` counts only transactions that made a state
change, and **transaction efficiency** is their ratio:

    eta = T_state / T_raw

The :class:`MetricsCollector` tracks a designated set of watched
transactions (the experiments watch the ``buy`` transactions, matching
Figure 2, where "each data point represents the result of 100 buy
transactions") and computes the metrics from the chain's receipts once the
run is over.

Two retention modes
-------------------

*Unbounded* (the default): every watched transaction keeps its full
:class:`TransactionRecord` for the life of the collector, and reports are
computed from the record list exactly as they always were — this path is
golden-checksum-gated and must stay byte-identical.

*Streaming* (``metrics_window=<seconds>``): a resolved record is folded
into bounded per-label aggregates (counts, latency sum/min/max, and a
seeded reservoir for p50/p95) plus per-time-window aggregates, then
dropped.  Memory is O(labels + windows + reservoir), not O(transactions).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..chain.block import Block
from ..chain.chain import Blockchain
from ..chain.transaction import Transaction
from ..obs import runtime as _obs
from .percentiles import percentile

__all__ = [
    "TransactionRecord",
    "ThroughputReport",
    "MetricsCollector",
    "transaction_efficiency",
]

DEFAULT_RESERVOIR_SIZE = 512
"""Latency samples kept per label in streaming mode (for p50/p95)."""


def transaction_efficiency(successful: int, committed: int) -> float:
    """eta = successful / committed; defined as 0.0 for an empty block set."""
    if committed <= 0:
        return 0.0
    return successful / committed


@dataclass
class TransactionRecord:
    """Lifecycle of one watched transaction."""

    transaction: Transaction
    label: str
    submitted_at: float
    committed_at: Optional[float] = None
    block_number: Optional[int] = None
    success: Optional[bool] = None
    error: Optional[str] = None

    @property
    def committed(self) -> bool:
        return self.committed_at is not None

    @property
    def commit_latency(self) -> Optional[float]:
        """Seconds from client submission to block publication."""
        if self.committed_at is None:
            return None
        return self.committed_at - self.submitted_at


@dataclass
class ThroughputReport:
    """Aggregate metrics over a set of watched transactions."""

    label: str
    submitted: int
    committed: int
    successful: int
    failed: int
    uncommitted: int
    duration: float
    raw_throughput: float
    state_throughput: float
    efficiency: float
    mean_commit_latency: Optional[float]
    latencies: List[float] = field(default_factory=list)
    windowed: bool = False
    latency_p50: Optional[float] = None
    latency_p95: Optional[float] = None
    latency_min: Optional[float] = None
    latency_max: Optional[float] = None

    @property
    def success_rate(self) -> float:
        """Successful / submitted — what Figure 2 plots ("the result of 100 buy
        transactions"); equals ``efficiency`` when every submission commits."""
        if self.submitted <= 0:
            return 0.0
        return self.successful / self.submitted

    def as_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "label": self.label,
            "submitted": self.submitted,
            "committed": self.committed,
            "successful": self.successful,
            "failed": self.failed,
            "uncommitted": self.uncommitted,
            "duration": self.duration,
            "raw_throughput": self.raw_throughput,
            "state_throughput": self.state_throughput,
            "efficiency": self.efficiency,
            "success_rate": self.success_rate,
            "mean_commit_latency": self.mean_commit_latency,
        }
        if self.windowed:
            # Streaming-only keys: emitted only for windowed reports so the
            # default (unbounded) summary bytes never change.
            data["latency_p50"] = self.latency_p50
            data["latency_p95"] = self.latency_p95
            data["latency_min"] = self.latency_min
            data["latency_max"] = self.latency_max
        return data


class _LabelAggregate:
    """Bounded streaming summary of one label's watched transactions."""

    __slots__ = (
        "submitted",
        "committed",
        "successful",
        "latency_sum",
        "latency_min",
        "latency_max",
        "first_submitted_at",
        "last_committed_at",
        "reservoir",
        "seen",
    )

    def __init__(self) -> None:
        self.submitted = 0
        self.committed = 0
        self.successful = 0
        self.latency_sum = 0.0
        self.latency_min: Optional[float] = None
        self.latency_max: Optional[float] = None
        self.first_submitted_at: Optional[float] = None
        self.last_committed_at: Optional[float] = None
        self.reservoir: List[float] = []
        self.seen = 0


def _percentile(sorted_samples: Sequence[float], fraction: float) -> Optional[float]:
    """Nearest-rank percentile over an already-sorted sample list.

    Back-compat shim over :func:`repro.core.percentiles.percentile`.
    """
    return percentile(sorted_samples, fraction, method="nearest_rank", presorted=True)


class MetricsCollector:
    """Records watched transactions and derives the paper's metrics."""

    def __init__(
        self,
        metrics_window: Optional[float] = None,
        reservoir_size: int = DEFAULT_RESERVOIR_SIZE,
        seed: int = 0,
    ) -> None:
        if metrics_window is not None and metrics_window <= 0:
            raise ValueError("metrics_window must be positive")
        if reservoir_size < 1:
            raise ValueError("reservoir_size must be positive")
        self._records: Dict[bytes, TransactionRecord] = {}
        self._window_seconds = metrics_window
        self._streaming = metrics_window is not None
        self._reservoir_size = reservoir_size
        self._rng = random.Random(seed)
        self._aggregates: Dict[str, _LabelAggregate] = {}
        self._windows: Dict[Tuple[str, int], List[float]] = {}
        self._next_scan = 0

    @property
    def streaming(self) -> bool:
        """True when resolved rows fold into aggregates instead of piling up."""
        return self._streaming

    # -- recording ----------------------------------------------------------------

    def watch(self, transaction: Transaction, label: str, submitted_at: float) -> None:
        """Register a transaction whose outcome should be measured."""
        self._records[transaction.hash] = TransactionRecord(
            transaction=transaction, label=label, submitted_at=submitted_at
        )
        if self._streaming:
            aggregate = self._aggregate_for(label)
            aggregate.submitted += 1
            if (
                aggregate.first_submitted_at is None
                or submitted_at < aggregate.first_submitted_at
            ):
                aggregate.first_submitted_at = submitted_at

    def _aggregate_for(self, label: str) -> _LabelAggregate:
        aggregate = self._aggregates.get(label)
        if aggregate is None:
            aggregate = self._aggregates[label] = _LabelAggregate()
        return aggregate

    def watched_count(self, label: Optional[str] = None) -> int:
        if self._streaming:
            return sum(
                aggregate.submitted
                for key, aggregate in self._aggregates.items()
                if label is None or key == label
            )
        return sum(1 for record in self._records.values() if label is None or record.label == label)

    def pending_count(self, label: Optional[str] = None) -> int:
        """Watched transactions not yet seen in a block (both modes)."""
        return sum(
            1
            for record in self._records.values()
            if (label is None or record.label == label) and not record.committed
        )

    def committed_count(self, label: Optional[str] = None) -> int:
        if self._streaming:
            return sum(
                aggregate.committed
                for key, aggregate in self._aggregates.items()
                if label is None or key == label
            )
        return sum(
            1
            for record in self._records.values()
            if (label is None or record.label == label) and record.committed
        )

    def successful_count(self, label: Optional[str] = None) -> int:
        if self._streaming:
            return sum(
                aggregate.successful
                for key, aggregate in self._aggregates.items()
                if label is None or key == label
            )
        return sum(
            1
            for record in self._records.values()
            if (label is None or record.label == label)
            and record.committed
            and record.success
        )

    def labels(self) -> List[str]:
        """Every label ever watched, sorted."""
        if self._streaming:
            return sorted(self._aggregates)
        return sorted({record.label for record in self._records.values()})

    def records(self, label: Optional[str] = None) -> List[TransactionRecord]:
        """Retained records.  In streaming mode resolved records have been
        folded away, so only still-pending ones remain."""
        return [
            record
            for record in self._records.values()
            if label is None or record.label == label
        ]

    # -- resolution ------------------------------------------------------------------

    def resolve_from_chain(self, chain: Blockchain) -> None:
        """Fill in commit status for every watched transaction found on chain.

        Unbounded mode rescans the chain's retained blocks (idempotent, the
        historical behaviour).  Streaming mode scans incrementally from the
        last resolved height so each block folds exactly once even as the
        chain's own retention window slides.
        """
        tracer = _obs.TRACER
        start_wall = perf_counter() if tracer is not None else 0.0
        if not self._streaming:
            for block in chain.blocks():
                self.resolve_from_block(block)
        else:
            start = max(self._next_scan, chain.earliest_block_number)
            for number in range(start, chain.height + 1):
                self.resolve_from_block(chain.block_by_number(number))
            self._next_scan = chain.height + 1
        if tracer is not None:
            tracer.phase("metrics_fold", start_wall)

    def resolve_from_block(self, block: Block) -> None:
        records = self._records
        for receipt in block.receipts:
            record = records.get(receipt.transaction_hash)
            if record is None:
                continue
            first_resolution = record.committed_at is None
            record.committed_at = block.timestamp
            record.block_number = block.number
            record.success = receipt.success
            record.error = receipt.error
            if first_resolution:
                tracer = _obs.TRACER
                if tracer is not None:
                    tracer.event(
                        "tx.receipt",
                        tx=receipt.transaction_hash,
                        label=record.label,
                        block_number=block.number,
                        success=receipt.success,
                        latency=round(block.timestamp - record.submitted_at, 9),
                    )
            if self._streaming:
                del records[receipt.transaction_hash]
                self._fold(record)

    def _fold(self, record: TransactionRecord) -> None:
        """Fold one resolved record into the bounded aggregates and drop it."""
        aggregate = self._aggregate_for(record.label)
        aggregate.committed += 1
        if record.success:
            aggregate.successful += 1
        committed_at = record.committed_at
        assert committed_at is not None
        if (
            aggregate.last_committed_at is None
            or committed_at > aggregate.last_committed_at
        ):
            aggregate.last_committed_at = committed_at
        latency = committed_at - record.submitted_at
        aggregate.latency_sum += latency
        if aggregate.latency_min is None or latency < aggregate.latency_min:
            aggregate.latency_min = latency
        if aggregate.latency_max is None or latency > aggregate.latency_max:
            aggregate.latency_max = latency
        # Algorithm R: a uniform sample of latencies in bounded memory.
        aggregate.seen += 1
        if len(aggregate.reservoir) < self._reservoir_size:
            aggregate.reservoir.append(latency)
        else:
            slot = self._rng.randrange(aggregate.seen)
            if slot < self._reservoir_size:
                aggregate.reservoir[slot] = latency
        window_index = int(committed_at // self._window_seconds)
        window = self._windows.get((record.label, window_index))
        if window is None:
            # [committed, successful, latency_sum, latency_min, latency_max]
            self._windows[(record.label, window_index)] = [
                1.0,
                1.0 if record.success else 0.0,
                latency,
                latency,
                latency,
            ]
        else:
            window[0] += 1.0
            window[1] += 1.0 if record.success else 0.0
            window[2] += latency
            window[3] = min(window[3], latency)
            window[4] = max(window[4], latency)

    # -- windowed aggregates -----------------------------------------------------------

    def windows(self) -> List[Dict[str, object]]:
        """Per-(label, time-window) aggregate rows, ready for a ResultFrame.

        Empty in unbounded mode (no ``metrics_window`` configured).
        """
        if self._window_seconds is None:
            return []
        rows: List[Dict[str, object]] = []
        for label, index in sorted(self._windows):
            committed, successful, latency_sum, latency_min, latency_max = self._windows[
                (label, index)
            ]
            committed_count = int(committed)
            successful_count = int(successful)
            rows.append(
                {
                    "label": label,
                    "window": index,
                    "window_start": index * self._window_seconds,
                    "window_end": (index + 1) * self._window_seconds,
                    "committed": committed_count,
                    "successful": successful_count,
                    "failed": committed_count - successful_count,
                    "latency_mean": latency_sum / committed_count,
                    "latency_min": latency_min,
                    "latency_max": latency_max,
                }
            )
        return rows

    # -- reporting --------------------------------------------------------------------

    def report(
        self,
        label: Optional[str] = None,
        duration: Optional[float] = None,
    ) -> ThroughputReport:
        """Compute the throughput/efficiency report for one label (or all).

        ``duration`` defaults to the span between the first submission and the
        last commit observed, which matches how the paper normalises a run.
        """
        if self._streaming:
            return self._streaming_report(label, duration)
        records = self.records(label)
        submitted = len(records)
        committed_records = [record for record in records if record.committed]
        committed = len(committed_records)
        successful = sum(1 for record in committed_records if record.success)
        failed = committed - successful
        latencies = [
            record.commit_latency for record in committed_records if record.commit_latency is not None
        ]
        if duration is None:
            if committed_records:
                start = min(record.submitted_at for record in records)
                end = max(record.committed_at for record in committed_records)
                duration = max(end - start, 1e-9)
            else:
                duration = 0.0
        raw_throughput = committed / duration if duration else 0.0
        state_throughput = successful / duration if duration else 0.0
        return ThroughputReport(
            label=label or "all",
            submitted=submitted,
            committed=committed,
            successful=successful,
            failed=failed,
            uncommitted=submitted - committed,
            duration=duration,
            raw_throughput=raw_throughput,
            state_throughput=state_throughput,
            efficiency=transaction_efficiency(successful, committed),
            mean_commit_latency=(sum(latencies) / len(latencies)) if latencies else None,
            latencies=latencies,
        )

    def _streaming_report(
        self, label: Optional[str], duration: Optional[float]
    ) -> ThroughputReport:
        aggregates = [
            aggregate
            for key, aggregate in self._aggregates.items()
            if label is None or key == label
        ]
        submitted = sum(aggregate.submitted for aggregate in aggregates)
        committed = sum(aggregate.committed for aggregate in aggregates)
        successful = sum(aggregate.successful for aggregate in aggregates)
        failed = committed - successful
        latency_sum = sum(aggregate.latency_sum for aggregate in aggregates)
        latency_mins = [
            aggregate.latency_min
            for aggregate in aggregates
            if aggregate.latency_min is not None
        ]
        latency_maxs = [
            aggregate.latency_max
            for aggregate in aggregates
            if aggregate.latency_max is not None
        ]
        if duration is None:
            starts = [
                aggregate.first_submitted_at
                for aggregate in aggregates
                if aggregate.first_submitted_at is not None
            ]
            ends = [
                aggregate.last_committed_at
                for aggregate in aggregates
                if aggregate.last_committed_at is not None
            ]
            if committed and starts and ends:
                duration = max(max(ends) - min(starts), 1e-9)
            else:
                duration = 0.0
        raw_throughput = committed / duration if duration else 0.0
        state_throughput = successful / duration if duration else 0.0
        samples = sorted(
            latency for aggregate in aggregates for latency in aggregate.reservoir
        )
        return ThroughputReport(
            label=label or "all",
            submitted=submitted,
            committed=committed,
            successful=successful,
            failed=failed,
            uncommitted=submitted - committed,
            duration=duration,
            raw_throughput=raw_throughput,
            state_throughput=state_throughput,
            efficiency=transaction_efficiency(successful, committed),
            mean_commit_latency=(latency_sum / committed) if committed else None,
            latencies=[],
            windowed=True,
            latency_p50=_percentile(samples, 0.50),
            latency_p95=_percentile(samples, 0.95),
            latency_min=min(latency_mins) if latency_mins else None,
            latency_max=max(latency_maxs) if latency_maxs else None,
        )
