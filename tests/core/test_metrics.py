"""Tests for the state-throughput metrics (Section III-A)."""

import pytest

from repro.chain import Blockchain, GenesisConfig, Transaction
from repro.core.metrics import MetricsCollector, transaction_efficiency
from repro.crypto.addresses import address_from_label

from ..oracles import ValueTransferExecutor

ALICE = address_from_label("alice")
BOB = address_from_label("bob")
MINER = address_from_label("miner")


def make_chain():
    return Blockchain(ValueTransferExecutor(), GenesisConfig.for_labels(["alice", "bob", "miner"]))


class TestTransactionEfficiency:
    def test_basic_ratio(self):
        assert transaction_efficiency(50, 100) == 0.5

    def test_zero_committed(self):
        assert transaction_efficiency(0, 0) == 0.0

    def test_all_successful(self):
        assert transaction_efficiency(10, 10) == 1.0


class TestMetricsCollector:
    def test_report_counts_success_and_failure(self):
        chain = make_chain()
        collector = MetricsCollector()
        good = Transaction(sender=ALICE, nonce=0, to=BOB, value=1, submitted_at=1.0)
        bad = Transaction(sender=ALICE, nonce=5, to=BOB, value=1, submitted_at=2.0)  # wrong nonce
        collector.watch(good, "buy", submitted_at=1.0)
        collector.watch(bad, "buy", submitted_at=2.0)
        block, _ = chain.build_block([good, bad], miner=MINER, timestamp=13.0)
        chain.add_block(block)
        collector.resolve_from_chain(chain)
        report = collector.report("buy")
        assert report.submitted == 2
        assert report.committed == 2
        assert report.successful == 1
        assert report.failed == 1
        assert report.efficiency == 0.5
        assert report.success_rate == 0.5

    def test_uncommitted_transactions_tracked(self):
        collector = MetricsCollector()
        pending = Transaction(sender=ALICE, nonce=0, to=BOB, value=1, submitted_at=1.0)
        collector.watch(pending, "buy", submitted_at=1.0)
        report = collector.report("buy")
        assert report.uncommitted == 1
        assert report.committed == 0
        assert report.efficiency == 0.0
        assert report.mean_commit_latency is None

    def test_commit_latency_measured_from_submission_to_block_timestamp(self):
        chain = make_chain()
        collector = MetricsCollector()
        transaction = Transaction(sender=ALICE, nonce=0, to=BOB, value=1, submitted_at=3.0)
        collector.watch(transaction, "buy", submitted_at=3.0)
        block, _ = chain.build_block([transaction], miner=MINER, timestamp=13.0)
        chain.add_block(block)
        collector.resolve_from_chain(chain)
        record = collector.records("buy")[0]
        assert record.commit_latency == pytest.approx(10.0)
        report = collector.report("buy")
        assert report.mean_commit_latency == pytest.approx(10.0)

    def test_labels_are_separated(self):
        chain = make_chain()
        collector = MetricsCollector()
        buy = Transaction(sender=ALICE, nonce=0, to=BOB, value=1, submitted_at=1.0)
        set_tx = Transaction(sender=BOB, nonce=0, to=ALICE, value=1, submitted_at=1.0)
        collector.watch(buy, "buy", submitted_at=1.0)
        collector.watch(set_tx, "set", submitted_at=1.0)
        block, _ = chain.build_block([buy, set_tx], miner=MINER, timestamp=13.0)
        chain.add_block(block)
        collector.resolve_from_chain(chain)
        assert collector.report("buy").submitted == 1
        assert collector.report("set").submitted == 1
        assert collector.report().submitted == 2
        assert collector.watched_count("buy") == 1

    def test_state_throughput_lower_than_raw_when_failures_exist(self):
        chain = make_chain()
        collector = MetricsCollector()
        good = Transaction(sender=ALICE, nonce=0, to=BOB, value=1, submitted_at=0.0)
        bad = Transaction(sender=ALICE, nonce=9, to=BOB, value=1, submitted_at=0.0)
        for transaction in (good, bad):
            collector.watch(transaction, "buy", submitted_at=0.0)
        block, _ = chain.build_block([good, bad], miner=MINER, timestamp=10.0)
        chain.add_block(block)
        collector.resolve_from_chain(chain)
        report = collector.report("buy")
        assert report.state_throughput < report.raw_throughput
        assert report.state_throughput == pytest.approx(report.raw_throughput * report.efficiency)

    def test_explicit_duration_is_respected(self):
        chain = make_chain()
        collector = MetricsCollector()
        transaction = Transaction(sender=ALICE, nonce=0, to=BOB, value=1, submitted_at=0.0)
        collector.watch(transaction, "buy", submitted_at=0.0)
        block, _ = chain.build_block([transaction], miner=MINER, timestamp=10.0)
        chain.add_block(block)
        collector.resolve_from_chain(chain)
        report = collector.report("buy", duration=100.0)
        assert report.raw_throughput == pytest.approx(0.01)
