"""Tests for the paper's experiments: Figure 2, sequential history, and the
ablation sweeps (all at small scale), through the experiment registry and
the simulation facade."""

from dataclasses import replace

import pytest

from repro.api import ExperimentOptions, Simulation, Sweep, plan_experiment, run_experiment
from repro.experiments.ablations import ABLATION_NAMES
from repro.experiments.scenario import GETH_UNMODIFIED, SEMANTIC_MINING, SERETH_CLIENT_SCENARIO

SCENARIO_NAMES = ("geth_unmodified", "sereth_client", "semantic_mining")


@pytest.fixture(scope="module")
def small_figure2():
    """The figure2 smoke grid: 2 ratios x 3 scenarios x 2 trials, 30 buys."""
    return run_experiment("figure2", ExperimentOptions(smoke=True))


class TestFigure2Harness:
    def test_every_point_present(self, small_figure2):
        frame = small_figure2.frame
        assert len(frame) == 12
        for scenario in SCENARIO_NAMES:
            assert sorted(frame.filter(scenario=scenario).unique("buys_per_set")) == [1.0, 10.0]

    def test_shape_matches_paper(self, small_figure2):
        frame = small_figure2.frame
        for ratio in frame.unique("buys_per_set"):
            geth = frame.mean("eta", scenario="geth_unmodified", buys_per_set=ratio)
            sereth = frame.mean("eta", scenario="sereth_client", buys_per_set=ratio)
            semantic = frame.mean("eta", scenario="semantic_mining", buys_per_set=ratio)
            assert geth <= sereth + 0.05
            assert sereth <= semantic + 0.05
            assert semantic >= 0.75

    def test_improvement_factor(self, small_figure2):
        frame = small_figure2.frame
        geth = frame.mean("eta", scenario="geth_unmodified", buys_per_set=1.0)
        semantic = frame.mean("eta", scenario="semantic_mining", buys_per_set=1.0)
        assert semantic > geth

    def test_unknown_point_raises(self, small_figure2):
        frame = small_figure2.frame
        assert len(frame.filter(scenario="geth_unmodified", buys_per_set=99.0)) == 0
        with pytest.raises(KeyError):
            frame.filter(ratio=1.0)

    def test_table_and_chart_render(self, small_figure2):
        table = small_figure2.export_frame().to_markdown()
        assert "geth_unmodified" in table
        assert "semantic_mining" in table
        assert "eta" in table.splitlines()[0].split(" | ")

    def test_headline_claims_structure(self, small_figure2):
        checks = small_figure2.claim_checks
        assert len(checks) >= 3
        for check in checks:
            assert check.claim and check.paper_value and check.measured_value
        # The qualitative shape claims must hold even at this small scale.
        assert checks[0].holds  # client-only HMS improves across the range


class TestSequentialHistory:
    def test_single_sender_history_has_perfect_efficiency(self):
        run = run_experiment(
            "sequential", ExperimentOptions(smoke=True, seed=1, overrides={"num_pairs": 10})
        )
        reports = run.frame.row(0)["summary"]["reports"]
        assert reports["buy"]["committed"] + reports["set"]["committed"] == 20
        assert run.frame.row(0)["buy_eta"] == 1.0

    def test_holds_even_under_arbitrary_miner_order(self):
        run = run_experiment(
            "sequential", ExperimentOptions(smoke=True, seed=2, overrides={"num_pairs": 10})
        )
        row = run.frame.row(0)
        assert row["summary"]["spec"]["miner_policy"] == "random"
        assert row["buy_eta"] == 1.0
        assert row["set_eta"] == 1.0


def market_spec(scenario, buys_per_set=2.0, submission_interval=1.0, **fields):
    """A small market run with one knob varied (``fields`` are spec fields)."""
    spec = (
        Simulation.builder()
        .scenario(scenario)
        .workload(
            "market",
            num_buys=24,
            num_buyers=2,
            buys_per_set=buys_per_set,
            submission_interval=submission_interval,
        )
        .seed(5)
        .build()
    )
    return replace(spec, **fields)


def success_rates(specs):
    rows = Sweep.from_specs([(spec, {}) for spec in specs]).run().rows
    return [row.summary["reports"]["buy"]["success_rate"] for row in rows]


class TestAblations:
    def test_semantic_miner_fraction_sweep_is_monotonic_ish(self):
        values = success_rates(
            market_spec(SEMANTIC_MINING.with_semantic_fraction(fraction), num_miners=4)
            for fraction in (0.0, 1.0)
        )
        assert len(values) == 2
        assert values[1] >= values[0]

    def test_gossip_impairment_hurts_client_only_hms(self):
        fast, slow = success_rates(
            market_spec(SERETH_CLIENT_SCENARIO, gossip_latency=latency, gossip_jitter=latency / 2)
            for latency in (0.05, 5.0)
        )
        assert fast >= slow

    def test_submission_interval_sweep_runs(self):
        values = success_rates(
            market_spec(scenario, buys_per_set=10.0, submission_interval=interval)
            for scenario in (GETH_UNMODIFIED, SERETH_CLIENT_SCENARIO)
            for interval in (0.5, 2.0)
        )
        assert len(values) == 4
        assert all(0.0 <= value <= 1.0 for value in values)

    def test_block_interval_sweep_baseline_degrades_with_longer_blocks(self):
        short, long = success_rates(
            market_spec(GETH_UNMODIFIED, buys_per_set=4.0, block_interval=interval)
            for interval in (5.0, 60.0)
        )
        assert short >= long - 0.05

    def test_registered_ablation_covers_every_sweep(self):
        """``repro run ablation --set name=<which>`` plans each named sweep."""
        for name in ABLATION_NAMES:
            options = ExperimentOptions(smoke=True, overrides={"name": name})
            _, _, sweep = plan_experiment("ablation", options)
            jobs = sweep.jobs()
            assert jobs and {tags["ablation"] for _, tags in jobs} == {name}
