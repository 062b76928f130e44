"""Attack-matrix experiment tests (the acceptance grid, at smoke scale)."""

import pytest

from repro.api import ExperimentOptions, plan_experiment, run_experiment
from repro.experiments.attack_matrix import CONTROL_ROW, AttackMatrixConfig


@pytest.fixture(scope="module")
def smoke_result():
    return run_experiment(
        "attack_matrix",
        ExperimentOptions(
            seed=3,
            overrides={
                "adversaries": ["displacement", "insertion"],
                "defenses": ["geth_unmodified", "semantic_mining"],
                "buys": 8,
            },
        ),
    )


def cell(run, adversary, defense):
    """The single frame row of one (adversary, defense) cell."""
    rows = run.frame.filter(adversary=adversary, defense=defense)
    if len(rows) != 1:
        raise KeyError(f"no matrix cell for ({adversary!r}, {defense!r})")
    return rows.row(0)


class TestMatrixShape:
    def test_all_cells_present_including_control(self, smoke_result):
        assert len(smoke_result.frame) == 3 * 2  # (control + 2 adversaries) x 2 defenses
        assert cell(smoke_result, CONTROL_ROW, "geth_unmodified")["attempts"] == 0

    def test_unknown_adversary_fails_fast(self):
        with pytest.raises(KeyError, match="unknown adversary"):
            AttackMatrixConfig(adversaries=("nope",))

    def test_cell_lookup_raises_for_missing_cells(self, smoke_result):
        with pytest.raises(KeyError):
            cell(smoke_result, "displacement", "sereth_client")

    def test_as_dict_rows_are_json_shaped(self, smoke_result):
        for row in smoke_result.export_frame().to_records():
            assert {"adversary", "defense", "attempts", "victim_harm", "victim_submitted"} <= set(row)


class TestAcceptance:
    def test_displacement_harms_the_baseline(self, smoke_result):
        assert cell(smoke_result, "displacement", "geth_unmodified")["victim_harm"] > 0

    def test_hms_shows_zero_victim_harm_under_displacement(self, smoke_result):
        """The headline acceptance criterion (paper Section V-B)."""
        assert cell(smoke_result, "displacement", "semantic_mining")["victim_harm"] == 0
        assert smoke_result.claim_checks[0].holds

    def test_mark_bound_offers_hold_in_every_cell(self, smoke_result):
        assert all(row["overpaid"] == 0 and row["audit_clean"] for row in smoke_result.frame)
        assert smoke_result.passed

    def test_attackers_actually_attacked(self, smoke_result):
        for adversary in ("displacement", "insertion"):
            for defense in ("geth_unmodified", "semantic_mining"):
                assert cell(smoke_result, adversary, defense)["attempts"] > 0


def matrix_jobs(trials=1, **overrides):
    """The planned (spec, tags) jobs of a small attack matrix."""
    options = ExperimentOptions(trials=trials, overrides=dict(buys=4, **overrides))
    return plan_experiment("attack_matrix", options)[2].jobs()


class TestJobExpansion:
    def test_trials_multiply_jobs(self):
        jobs = matrix_jobs(
            trials=3, adversaries="displacement", defenses="semantic_mining", control=False
        )
        assert len(jobs) == 3
        assert len({spec.seed for spec, _tags in jobs}) == 3

    def test_every_adversary_cell_carries_its_adversary(self):
        jobs = matrix_jobs(adversaries="suppression", defenses="semantic_mining")
        by_row = {tags["adversary"]: spec for spec, tags in jobs}
        assert by_row[CONTROL_ROW].adversaries == ()
        assert by_row["suppression"].adversaries[0][0] == "suppression"
