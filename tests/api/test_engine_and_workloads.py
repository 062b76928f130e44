"""Engine + workload-plugin tests: reproducibility, parity, and the new workloads."""

import gc
import threading
from dataclasses import replace

import pytest

from repro.api import Simulation, SimulationSpec, build_simulation, freeze_params, run_simulation
from repro.experiments.scenario import GETH_UNMODIFIED


def market_spec(scenario: str, seed: int = 7, **params):
    defaults = dict(num_buys=12, num_buyers=2, buys_per_set=2.0)
    defaults.update(params)
    return replace(
        Simulation.builder()
        .scenario(scenario)
        .workload("market", **defaults)
        .miners(1)
        .clients(2)
        .seed(seed)
        .build(),
        settle_blocks=3,
    )


class TestRootSeedThreading:
    """One root seed drives every RNG: identical specs => identical metrics."""

    def test_identical_specs_reproduce_identical_metrics(self):
        spec = market_spec("sereth_client", seed=42)
        first = run_simulation(spec)
        second = run_simulation(spec)
        assert first.summary() == second.summary()

    def test_reproducibility_covers_prices_intervals_jitter_and_latency(self):
        """The summary fixes the whole causal chain: the random-walk prices,
        the Poisson block intervals, miner order jitter, and gossip latency
        all derive from spec.seed, so block counts and per-transaction
        outcomes must match exactly."""
        spec = market_spec("geth_unmodified", seed=9)
        first = run_simulation(spec)
        second = run_simulation(spec)
        assert first.blocks_produced == second.blocks_produced
        assert first.simulated_seconds == second.simulated_seconds
        assert first.reports["buy"].as_dict() == second.reports["buy"].as_dict()
        assert first.reports["set"].as_dict() == second.reports["set"].as_dict()

    def test_different_root_seeds_change_the_derived_streams(self):
        baseline = run_simulation(market_spec("geth_unmodified", seed=1))
        other = run_simulation(market_spec("geth_unmodified", seed=2))
        # Simulated time depends on the Poisson interval stream, which must
        # differ under a different root seed.
        assert (
            baseline.simulated_seconds != other.simulated_seconds
            or baseline.summary() != other.summary()
        )


class TestLegacyParity:
    def test_facade_reproduces_the_legacy_runner_exactly(self):
        """The builder and a hand-written spec with every market parameter
        spelled out (the form the ablation experiment builds) are the same
        spec, so they produce the same digest and the same metrics."""
        built = (
            Simulation.builder()
            .scenario("geth_unmodified")
            .workload("market", num_buys=12, num_buyers=2, buys_per_set=2.0)
            .seed(7)
            .build()
        )
        explicit = SimulationSpec(
            scenario=GETH_UNMODIFIED,
            workload="market",
            workload_params=freeze_params(
                {
                    "num_buys": 12,
                    "buys_per_set": 2.0,
                    "submission_interval": 1.0,
                    "start_time": 30.0,
                    "initial_price": 100,
                    "price_max_step": 5,
                    "num_buyers": 2,
                }
            ),
            seed=7,
        )
        first, second = run_simulation(built), run_simulation(explicit)
        assert first.reports["buy"].as_dict() == second.reports["buy"].as_dict()
        assert first.reports["set"].as_dict() == second.reports["set"].as_dict()
        assert first.blocks_produced == second.blocks_produced
        assert first.simulated_seconds == second.simulated_seconds


class TestNewWorkloads:
    def test_ticket_sale_scenario_ordering(self):
        rates = {}
        for scenario in ("geth_unmodified", "sereth_client", "semantic_mining"):
            spec = (
                Simulation.builder()
                .scenario(scenario)
                .workload("ticket_sale", num_buyers=3, price_changes=6, buys_per_buyer=2)
                .seed(3)
                .build()
            )
            rates[scenario] = run_simulation(spec).efficiency
        assert rates["geth_unmodified"] <= rates["sereth_client"] <= rates["semantic_mining"]
        assert rates["semantic_mining"] >= 0.75

    def test_auction_hms_bidders_win_more(self):
        def run(scenario):
            spec = (
                Simulation.builder()
                .scenario(scenario)
                .workload("auction", num_bidders=3, bids_per_bidder=2)
                .seed(3)
                .build()
            )
            return run_simulation(spec)

        committed = run("geth_unmodified")
        hms = run("sereth_client")
        assert hms.efficiency >= committed.efficiency
        # Every accepted bid raised the recorded high bid.
        assert hms.extras["accepted_bids"] == hms.reports["bid"].successful
        assert hms.extras["high_bid"] > 0

    def test_sequential_workload_is_perfect_under_random_order(self):
        spec = (
            Simulation.builder()
            .scenario("geth_unmodified")
            .workload("sequential", num_pairs=6)
            .miners(1)
            .clients(1)
            .miner_policy("random")
            .seed(2)
            .build()
        )
        result = run_simulation(spec)
        assert result.metrics.report().efficiency == 1.0

    def test_handle_supports_interactive_driving(self):
        spec = market_spec("sereth_client", num_buys=1)
        handle = Simulation(spec).start()
        handle.run_until(5.0)
        assert handle.simulator.now == 5.0
        assert set(handle.peers) == {"miner-0", "client-0", "client-1"}
        handle.production.stop()

    def test_semantic_scenario_beats_baseline_on_market(self):
        baseline = run_simulation(market_spec("geth_unmodified"))
        semantic = run_simulation(market_spec("semantic_mining"))
        assert semantic.efficiency >= baseline.efficiency


class TestCollectorPause:
    """``SimulationHandle.run`` pauses the cyclic collector and leaves it as
    the first entrant found it."""

    @staticmethod
    def handle_seeing_the_collector(seen, before=None):
        """A handle whose measured loop records ``gc.isenabled()`` (after
        calling ``before``) and then runs as usual."""
        handle = build_simulation(market_spec("geth_unmodified", num_buys=2))
        measured = handle._run_measured

        def run_measured(*args):
            if before is not None:
                before()
            seen.append(gc.isenabled())
            return measured(*args)

        handle._run_measured = run_measured
        return handle

    def test_a_collector_the_caller_disabled_stays_disabled(self):
        seen = []
        gc.disable()
        try:
            self.handle_seeing_the_collector(seen).run()
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert seen == [False]

    def test_a_run_that_raises_re_enables_the_collector(self):
        seen = []

        def boom():
            seen.append(gc.isenabled())
            raise RuntimeError("boom")

        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="boom"):
            self.handle_seeing_the_collector([], before=boom).run()
        assert seen == [False]
        assert gc.isenabled()

    def test_two_threads_running_at_once_leave_the_collector_enabled(self):
        seen, errors = [], []
        both_inside = threading.Barrier(2, timeout=30.0)
        first_done = threading.Event()

        def after_the_first_finished():
            both_inside.wait()
            assert first_done.wait(timeout=30.0)

        first = self.handle_seeing_the_collector(seen, before=both_inside.wait)
        # The second run looks only once the first has left ``run``: the
        # collector must still be off for it.
        second = self.handle_seeing_the_collector(seen, before=after_the_first_finished)

        def run(handle, done=None):
            try:
                handle.run()
            except Exception as error:  # surfaced below, not lost in the thread
                errors.append(error)
            finally:
                if done is not None:
                    done.set()

        assert gc.isenabled()
        threads = [
            threading.Thread(target=run, args=(first, first_done)),
            threading.Thread(target=run, args=(second,)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert seen == [False, False]
        assert gc.isenabled()
