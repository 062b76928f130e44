"""Tests for the streaming MetricsCollector (windowed aggregates, reservoir)
introduced for bounded-memory long runs."""

import pytest

from repro.chain import Blockchain, GenesisConfig, Transaction
from repro.core.metrics import DEFAULT_RESERVOIR_SIZE, MetricsCollector
from repro.crypto.addresses import address_from_label

from ..oracles import ValueTransferExecutor

ALICE = address_from_label("alice")
BOB = address_from_label("bob")
MINER = address_from_label("miner")


def make_chain():
    return Blockchain(
        ValueTransferExecutor(), GenesisConfig.for_labels(["alice", "bob", "miner"])
    )


def commit_transactions(chain, collector, count, label="buy", timestamp_step=10.0):
    """Watch ``count`` transfers and commit one per block, returning them."""
    transactions = []
    for nonce in range(count):
        transaction = Transaction(
            sender=ALICE, nonce=nonce, to=BOB, value=1, submitted_at=float(nonce)
        )
        collector.watch(transaction, label, submitted_at=float(nonce))
        block, _ = chain.build_block(
            [transaction], miner=MINER, timestamp=float(nonce) + timestamp_step
        )
        chain.add_block(block)
        transactions.append(transaction)
    collector.resolve_from_chain(chain)
    return transactions


class TestModeSelection:
    def test_default_collector_is_not_streaming(self):
        assert MetricsCollector().streaming is False
        assert MetricsCollector().windows() == []

    def test_window_turns_streaming_on(self):
        assert MetricsCollector(metrics_window=100.0).streaming is True

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError, match="metrics_window"):
            MetricsCollector(metrics_window=0.0)
        with pytest.raises(ValueError, match="reservoir_size"):
            MetricsCollector(metrics_window=1.0, reservoir_size=0)


class TestFolding:
    def test_resolved_records_fold_away_but_counts_survive(self):
        chain = make_chain()
        collector = MetricsCollector(metrics_window=100.0)
        commit_transactions(chain, collector, 5)
        # The per-transaction records are gone...
        assert collector.records("buy") == []
        # ...but every count the reports need is preserved.
        assert collector.watched_count("buy") == 5
        assert collector.committed_count("buy") == 5
        assert collector.successful_count("buy") == 5
        assert collector.pending_count("buy") == 0
        assert collector.labels() == ["buy"]

    def test_pending_records_are_retained_until_resolved(self):
        collector = MetricsCollector(metrics_window=100.0)
        pending = Transaction(sender=ALICE, nonce=0, to=BOB, value=1, submitted_at=1.0)
        collector.watch(pending, "buy", submitted_at=1.0)
        assert collector.pending_count("buy") == 1
        assert len(collector.records("buy")) == 1

    def test_report_matches_the_unbounded_collector(self):
        """Same chain, same transactions: the streaming report's headline
        numbers equal the whole-run collector's."""
        streaming_chain, unbounded_chain = make_chain(), make_chain()
        streaming = MetricsCollector(metrics_window=100.0)
        unbounded = MetricsCollector()
        commit_transactions(streaming_chain, streaming, 6)
        commit_transactions(unbounded_chain, unbounded, 6)
        lhs = streaming.report("buy").as_dict()
        rhs = unbounded.report("buy").as_dict()
        for key in (
            "submitted",
            "committed",
            "successful",
            "failed",
            "efficiency",
            "mean_commit_latency",
        ):
            assert lhs[key] == rhs[key], key


class TestWindows:
    def test_commits_land_in_their_time_window(self):
        chain = make_chain()
        collector = MetricsCollector(metrics_window=10.0)
        # Commit timestamps are nonce + 10: nonces 0..4 -> timestamps 10..14.
        commit_transactions(chain, collector, 5)
        rows = collector.windows()
        assert len(rows) == 1
        (row,) = rows
        assert row["label"] == "buy"
        assert row["window"] == 1
        assert row["window_start"] == 10.0
        assert row["window_end"] == 20.0
        assert row["committed"] == 5
        assert row["successful"] == 5
        assert row["failed"] == 0
        # Latency is commit timestamp - submission = 10.0 for every row.
        assert row["latency_mean"] == 10.0
        assert row["latency_min"] == 10.0
        assert row["latency_max"] == 10.0

    def test_commits_spread_across_windows(self):
        chain = make_chain()
        collector = MetricsCollector(metrics_window=4.0)
        commit_transactions(chain, collector, 8)  # timestamps 10..17
        rows = collector.windows()
        assert [row["window"] for row in rows] == [2, 3, 4]
        assert sum(row["committed"] for row in rows) == 8


class TestReservoir:
    def test_reservoir_is_bounded_but_sampled(self):
        chain = make_chain()
        collector = MetricsCollector(metrics_window=1000.0, reservoir_size=8)
        commit_transactions(chain, collector, 40)
        aggregate = collector._aggregates["buy"]
        assert aggregate.seen == 40
        assert len(aggregate.reservoir) == 8
        # Every sampled latency is a real observation (all are exactly 10.0).
        assert set(aggregate.reservoir) == {10.0}

    def test_default_reservoir_size(self):
        assert DEFAULT_RESERVOIR_SIZE == 512

    def test_percentiles_come_from_the_reservoir(self):
        chain = make_chain()
        collector = MetricsCollector(metrics_window=1000.0)
        commit_transactions(chain, collector, 10)
        data = collector.report("buy").as_dict()
        assert data["latency_p50"] == 10.0
        assert data["latency_p95"] == 10.0
        assert data["latency_min"] == 10.0
        assert data["latency_max"] == 10.0
        # Streaming-only keys: an unbounded report must not grow them (the
        # golden summaries were recorded without them).
        assert "latency_p50" not in MetricsCollector().report("buy").as_dict()
