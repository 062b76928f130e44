"""Behavioural tests for the five shipped attack strategies.

Cells are kept small (6 victim buys) so the whole module stays fast; the
full-size grid runs through ``repro run attack_matrix`` and CI's smoke job.
"""

import pytest

from repro.api import Simulation

REPORT_KEYS = {
    "name",
    "attempts",
    "attacks_committed",
    "successes",
    "profit",
    "victim_submitted",
    "victim_filled",
    "victim_harm",
    "trace",
}


def run_cell(defense: str, adversary: str, seed: int = 7, **params):
    spec = (
        Simulation.builder()
        .scenario(defense)
        .workload(
            "victim_market", num_victim_buys=6, buy_interval=2.0, reprice_interval=8.0
        )
        .adversary(adversary, **params)
        .miners(2)
        .clients(2)
        .gossip(0.07, 0.05)
        .gas(max_transactions_per_block=12)
        .seed(seed)
        .build()
    )
    result = Simulation(spec).run()
    return result.adversary_reports[adversary], result


@pytest.fixture(scope="module")
def displacement_cells():
    baseline, _ = run_cell("geth_unmodified", "displacement")
    hms, hms_result = run_cell("semantic_mining", "displacement")
    return baseline, hms, hms_result


class TestDisplacement:
    def test_attacks_every_victim_buy(self, displacement_cells):
        baseline, hms, _result = displacement_cells
        assert baseline["attempts"] == 6
        assert hms["attempts"] == 6

    def test_baseline_victims_are_harmed(self, displacement_cells):
        baseline, _hms, _result = displacement_cells
        assert baseline["victim_harm"] > 0

    def test_hms_defense_shows_zero_victim_harm(self, displacement_cells):
        """The paper's Section V-B claim, per-adversary edition."""
        _baseline, hms, _result = displacement_cells
        assert hms["victim_harm"] == 0
        assert hms["victim_filled"] == hms["victim_submitted"] == 6

    def test_no_victim_ever_overpays(self, displacement_cells):
        _baseline, _hms, result = displacement_cells
        assert result.extras["overpaid"] == 0
        assert result.extras["audit_clean"]

    def test_profit_tracks_successful_sets(self, displacement_cells):
        _baseline, hms, _result = displacement_cells
        assert hms["profit"] == 25.0 * hms["successes"]

    def test_report_shape(self, displacement_cells):
        baseline, _hms, _result = displacement_cells
        assert REPORT_KEYS <= set(baseline)
        assert all(event["kind"] == "displace" for event in baseline["trace"])


class TestInsertion:
    def test_sandwich_legs_fill_under_hms(self):
        report, result = run_cell("semantic_mining", "insertion")
        # Two legs per observed buy: the copied front buy and the repricing set.
        assert report["attacks_committed"] == 2 * report["attempts"]
        assert report["front_legs_filled"] > 0
        assert report["victim_harm"] == 0
        assert result.extras["overpaid"] == 0


class TestSuppression:
    def test_spam_crowds_out_baseline_victims(self):
        report, _result = run_cell("geth_unmodified", "suppression", burst=8)
        assert report["filler_submitted"] == 8 * report["attempts"]
        assert report["victim_harm"] > 0

    def test_semantic_mining_orders_spam_last(self):
        report, _result = run_cell("semantic_mining", "suppression", burst=8)
        assert report["victim_harm"] == 0

    def test_burst_cap(self):
        report, _result = run_cell("geth_unmodified", "suppression", max_bursts=2)
        assert report["attempts"] <= 2


class TestCensoringMiner:
    def test_censor_controls_configured_miner_slice(self):
        report, _result = run_cell("semantic_mining", "censoring_miner")
        assert report["miners_controlled"] == 1

    def test_censor_decisions_recorded(self):
        report, _result = run_cell("geth_unmodified", "censoring_miner", seed=9)
        assert report["censor_decisions"] == report["attempts"]

    def test_honest_majority_eventually_includes_victims(self):
        # With one of two miners censoring, victims still commit (possibly
        # late); censorship delays but cannot erase them.
        _report, result = run_cell("semantic_mining", "censoring_miner")
        victim_report = result.reports["victim-buy"]
        assert victim_report.committed > 0


class TestStaleOracle:
    def test_poisons_every_sereth_victim_peer(self):
        report, _result = run_cell("semantic_mining", "stale_oracle")
        assert report["peers_poisoned"] == 2
        assert report["attempts"] > 0  # stale reads served

    def test_inert_against_committed_read_baseline(self):
        """No RAA data service to poison on unmodified clients — reported
        honestly as zero attempts rather than a fake success."""
        report, _result = run_cell("geth_unmodified", "stale_oracle")
        assert report["peers_poisoned"] == 0
        assert report["attempts"] == 0

    def test_marks_stay_structurally_sound_despite_stale_reads(self):
        _report, result = run_cell("sereth_client", "stale_oracle")
        assert result.extras["overpaid"] == 0
        assert result.extras["audit_clean"]


class TestEngineWiring:
    def test_adversary_peers_join_the_network(self):
        _report, result = run_cell("semantic_mining", "displacement")
        peer_ids = {peer.peer_id for peer in result.peers}
        assert "adversary-0" in peer_ids

    def test_two_adversaries_get_distinct_keys_and_accounts(self):
        spec = (
            Simulation.builder()
            .scenario("semantic_mining")
            .workload("victim_market", num_victim_buys=4)
            .adversary("displacement")
            .adversary("displacement", markup=50)
            .clients(2)
            .seed(3)
            .build()
        )
        result = Simulation(spec).run()
        assert set(result.adversary_reports) == {"displacement@0", "displacement@1"}

    def test_no_adversaries_means_empty_reports(self):
        spec = (
            Simulation.builder()
            .scenario("semantic_mining")
            .workload("victim_market", num_victim_buys=4)
            .clients(2)
            .seed(3)
            .build()
        )
        result = Simulation(spec).run()
        assert result.adversary_reports == {}
        assert result.summary()["adversaries"] == {}
