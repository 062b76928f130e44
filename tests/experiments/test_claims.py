"""Claim-protocol tests: the paper's headline gates checked from smoke sweeps.

The paper's two headline numbers — client-only HMS improves throughput
across the whole ratio range (~5x), and semantic mining lifts efficiency
from a few percent to >80% where state changes are frequent — are asserted
here from the figure2 experiment's smoke grid, alongside the claim gates
the protocol added to the sequential and attack-matrix experiments.
"""

import pytest

from repro.api import ExperimentOptions, run_experiment
from repro.api.experiment import ClaimCheck
from repro.experiments.claims import (
    attack_matrix_claims,
    figure2_claims,
    sequential_claims,
)


@pytest.fixture(scope="module")
def figure2_smoke():
    """One small figure2 sweep shared by every claim test in this module."""
    return run_experiment("figure2", ExperimentOptions(smoke=True, workers=2))


class TestFigure2Claims:
    def test_the_smoke_sweep_passes_every_headline_gate(self, figure2_smoke):
        failing = [check.claim for check in figure2_smoke.claim_checks if not check.holds]
        assert not failing, f"claims failed on the smoke grid: {failing}"

    def test_hms_client_improves_throughput_across_the_range(self, figure2_smoke):
        check = figure2_smoke.claim_checks[0]
        assert "5x" in check.paper_value
        assert check.holds
        assert "x" in check.measured_value  # reports measured improvement factors

    def test_semantic_mining_lifts_efficiency_above_80_percent(self, figure2_smoke):
        check = figure2_smoke.claim_checks[1]
        assert ">80%" in check.paper_value
        assert check.holds
        # the measured value is "<geth>% -> <semantic>%"; the landing side of
        # the arrow is the semantic-mining efficiency the paper promises >80%
        landed = float(check.measured_value.split("->")[1].strip().rstrip("%"))
        assert landed >= 70.0

    def test_sets_always_succeed(self, figure2_smoke):
        check = figure2_smoke.claim_checks[3]
        assert check.holds
        assert check.measured_value == "100.0%"

    def test_frame_carries_the_derived_eta_columns(self, figure2_smoke):
        frame = figure2_smoke.frame
        assert "eta" in frame.column_names and "set_eta" in frame.column_names
        semantic = frame.mean("eta", scenario="semantic_mining")
        geth = frame.mean("eta", scenario="geth_unmodified")
        assert semantic > geth


class TestOtherExperimentGates:
    def test_sequential_claim_gate_holds(self):
        run = run_experiment("sequential", ExperimentOptions(smoke=True))
        assert run.passed
        assert "eta = 1.0" in run.claim_checks[0].paper_value

    def test_attack_matrix_claim_gates_hold_on_the_smoke_grid(self):
        run = run_experiment("attack_matrix", ExperimentOptions(smoke=True, workers=2))
        assert run.passed
        by_name = {check.claim: check for check in run.claim_checks}
        hms = next(check for name, check in by_name.items() if "Displacement" in name)
        assert hms.holds and "0/" in hms.measured_value

    def test_attack_matrix_hms_claim_is_vacuous_without_the_cell(self):
        frame_claims = attack_matrix_claims()
        from repro.api.frame import ResultFrame

        empty = ResultFrame.from_records(
            [
                {
                    "adversary": "insertion",
                    "defense": "geth_unmodified",
                    "victim_harm": 3,
                    "victim_submitted": 8,
                    "overpaid": 0,
                    "audit_clean": True,
                }
            ]
        )
        check = frame_claims[0].evaluate(empty)
        assert check.holds and check.measured_value == "n/a"


class TestGracefulDegradation:
    def test_semantic_claim_reports_missing_baseline_instead_of_raising(self):
        from repro.api.frame import ResultFrame

        no_baseline = ResultFrame.from_records(
            [
                {"scenario": "semantic_mining", "buys_per_set": 1.0, "eta": 0.9, "set_eta": 1.0},
            ]
        )
        check = figure2_claims()[1].evaluate(no_baseline)
        assert not check.holds
        assert check.measured_value == "no comparable cells"
        assert "geth_unmodified" in check.detail


class TestClaimBuilders:
    def test_every_builder_returns_claims_with_paper_values(self):
        for builder in (figure2_claims, sequential_claims, attack_matrix_claims):
            built = builder()
            assert built
            assert all(claim.paper_value for claim in built)

    def test_claimcheck_is_the_shared_protocol_type(self, figure2_smoke):
        assert figure2_smoke.claim_checks
        assert all(isinstance(check, ClaimCheck) for check in figure2_smoke.claim_checks)


def ablation_eta(name):
    """``{(scenario, parameter): eta}`` of one ablation's smoke grid."""
    run = run_experiment("ablation", ExperimentOptions(smoke=True, overrides={"name": name}))
    assert run.passed
    return {(row["scenario"], row["parameter"]): row["eta"] for row in run.frame}


class TestAblationShapes:
    """The Section V-C prose the ablation sweeps back, beyond the sanity gate."""

    def test_full_semantic_participation_commits_most_buys(self):
        eta = ablation_eta("miner_fraction")
        assert eta[("semantic_mining", 1.0)] > eta[("semantic_mining", 0.0)]
        assert eta[("semantic_mining", 1.0)] >= 0.75

    def test_hms_clients_dominate_the_baseline_at_every_submission_interval(self):
        eta = ablation_eta("submission_interval")
        for interval in (0.25, 2.0):
            assert eta[("sereth_client", interval)] >= eta[("geth_unmodified", interval)] - 0.05

    def test_semantic_mining_is_insensitive_to_the_block_interval(self):
        eta = ablation_eta("block_interval")
        assert min(eta[("semantic_mining", interval)] for interval in (5.0, 30.0)) >= 0.7
