"""The market plugin's buy/set schedule, driven through Simulation, and its price walk."""

from collections import Counter
from dataclasses import replace

import pytest

from repro.api import BuildError, Simulation, WORKLOAD_REGISTRY, build_simulation
from repro.crypto.addresses import address_from_label
from repro.workloads.market import BUY_LABEL, SET_LABEL, RandomWalkPrices

START = 10.0


def market_spec(**params):
    params = {"submission_interval": 1.0, "start_time": START, **params}
    return replace(
        Simulation.builder()
        .scenario("sereth_client")
        .workload("market", **params)
        .miners(1)
        .clients(2)
        .seed(4)
        .build(),
        settle_blocks=2,
    )


def run_market(num_buys=10, buys_per_set=2.0, num_buyers=2):
    handle = build_simulation(
        market_spec(num_buys=num_buys, buys_per_set=buys_per_set, num_buyers=num_buyers)
    )
    handle.run()
    return handle


class TestPriceWalk:
    def test_random_walk_stays_in_bounds_and_is_seeded(self):
        walk = RandomWalkPrices(initial=100, max_step=5, minimum=1, maximum=200, seed=3)
        prices = [walk.next_price() for _ in range(500)]
        assert all(1 <= price <= 200 for price in prices)
        replay = RandomWalkPrices(initial=100, max_step=5, minimum=1, maximum=200, seed=3)
        assert [replay.next_price() for _ in range(500)] == prices

    def test_random_walk_steps_are_bounded(self):
        walk = RandomWalkPrices(initial=100, max_step=3, seed=1)
        previous = 100
        for _ in range(100):
            current = walk.next_price()
            assert abs(current - previous) <= 3
            previous = current

    def test_random_walk_validation(self):
        with pytest.raises(ValueError):
            RandomWalkPrices(initial=0, minimum=1)
        with pytest.raises(ValueError):
            RandomWalkPrices(max_step=0)


class TestMarketParameters:
    def test_num_sets_follows_ratio(self):
        market = WORKLOAD_REGISTRY.get("market")
        spec = market_spec()
        assert market(spec, num_buys=100, buys_per_set=1.0).num_sets == 100
        assert market(spec, num_buys=100, buys_per_set=20.0).num_sets == 5
        assert market(spec, num_buys=100, buys_per_set=1000.0).num_sets == 1

    @pytest.mark.parametrize(
        "params",
        [{"num_buys": 0}, {"buys_per_set": 0}, {"submission_interval": 0}, {"num_buyers": 0}],
    )
    def test_validation(self, params):
        with pytest.raises(BuildError):
            market_spec(**params)


class TestMarketSchedule:
    def test_counts_match_configuration(self):
        metrics = run_market(num_buys=10, buys_per_set=2.0).metrics
        assert len(metrics.records(BUY_LABEL)) == 10
        assert len(metrics.records(SET_LABEL)) == 5 + 1  # plus the opening set

    def test_buys_round_robin_over_buyers(self):
        metrics = run_market(num_buys=10, buys_per_set=2.0, num_buyers=2).metrics
        senders = Counter(record.transaction.sender for record in metrics.records(BUY_LABEL))
        assert senders == {address_from_label("buyer-0"): 5, address_from_label("buyer-1"): 5}

    def test_sets_are_evenly_spaced_within_the_buy_window(self):
        metrics = run_market(num_buys=10, buys_per_set=2.0).metrics
        set_times = sorted(record.submitted_at for record in metrics.records(SET_LABEL))
        opening, set_times = set_times[0], set_times[1:]
        assert opening < START
        assert len(set_times) == 5
        gaps = [b - a for a, b in zip(set_times, set_times[1:])]
        assert all(gap == pytest.approx(gaps[0]) for gap in gaps)
        assert set_times[0] >= START
        assert set_times[-1] <= START + 10 * 1.0

    def test_buys_go_out_at_the_submission_interval(self):
        metrics = run_market(num_buys=10).metrics
        buy_times = sorted(record.submitted_at for record in metrics.records(BUY_LABEL))
        assert buy_times == [START + index * 1.0 for index in range(10)]

    def test_metrics_watch_every_submission(self):
        metrics = run_market(num_buys=10, buys_per_set=5.0).metrics
        assert metrics.watched_count(BUY_LABEL) == 10
        assert metrics.watched_count(SET_LABEL) == 2 + 1

    def test_end_of_submissions_closes_the_buy_window(self):
        workload = run_market(num_buys=10).workload
        assert workload.end_of_submissions == START + 10 * 1.0
