"""Experiment subsystem tests: registry, lifecycle, claims, resumable sweeps."""

import json

import pytest

from repro.api import EXPERIMENT_REGISTRY, ExperimentOptions, run_experiment
from repro.api.experiment import (
    Claim,
    ClaimCheck,
    GridExperiment,
    register_experiment,
)
from repro.api.frame import ResultFrame

SHIPPED_EXPERIMENTS = (
    "ablation",
    "attack_matrix",
    "figure2",
    "frontrunning",
    "oracle",
    "sequential",
)


class TestRegistry:
    def test_all_six_shipped_experiments_are_registered(self):
        for name in SHIPPED_EXPERIMENTS:
            assert name in EXPERIMENT_REGISTRY

    def test_register_requires_a_name(self):
        class Nameless(GridExperiment):
            pass

        with pytest.raises(ValueError, match="name"):
            register_experiment(Nameless)

    def test_duplicate_names_are_rejected(self):
        class Duplicate(GridExperiment):
            name = "figure2"

        with pytest.raises(ValueError, match="duplicate"):
            register_experiment(Duplicate)

    def test_unknown_experiment_is_a_clear_error(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("nonsense")


class TestClaimEvaluation:
    frame = ResultFrame.from_records([{"x": 1}])

    def evaluate(self, check):
        return Claim(name="c", paper_value="p", check=check).evaluate(self.frame)

    def test_bool_tuple_and_claimcheck_outcomes_normalize(self):
        assert self.evaluate(lambda frame: True).holds
        two = self.evaluate(lambda frame: (False, "42"))
        assert (two.holds, two.measured_value) == (False, "42")
        three = self.evaluate(lambda frame: (True, "42", "why"))
        assert (three.measured_value, three.detail) == ("42", "why")
        custom = ClaimCheck(claim="other", paper_value="p", measured_value="m", holds=True)
        assert self.evaluate(lambda frame: custom) is custom

    def test_a_raising_check_fails_instead_of_crashing(self):
        check = self.evaluate(lambda frame: 1 / 0)
        assert not check.holds
        assert "ZeroDivisionError" in check.detail


class MiniExperiment(GridExperiment):
    """A tiny grid over the sequential workload — fast enough for unit tests."""

    name = "mini_sequential"
    description = "test-only grid"
    workload = "sequential"
    base_params = {"num_pairs": 3}
    dimensions = {"num_pairs": [3, 5]}
    spec_fields = {"num_client_peers": 1}
    default_seed = 5
    claims = (
        Claim(
            name="everything commits",
            paper_value="eta = 1.0",
            check=lambda frame: all(
                row["summary"]["reports"]["buy"]["efficiency"] == 1.0
                for row in frame.rows()
            ),
        ),
    )
    export_columns = ("num_pairs", "trial", "seed", "blocks_produced")


@pytest.fixture(scope="module")
def mini() -> MiniExperiment:
    return MiniExperiment()


class TestLifecycle:
    def test_run_experiment_accepts_an_unregistered_instance(self, mini):
        run = run_experiment(mini)
        assert run.passed
        assert len(run.frame) == 2
        assert run.frame.unique("num_pairs") == [3, 5]

    def test_scalar_override_lands_on_the_base_spec(self, mini):
        sweep = mini.plan(ExperimentOptions(overrides={"block_interval": 5.0}))
        assert all(spec.block_interval == 5.0 for spec, _tags in sweep.jobs())

    def test_list_override_replaces_a_dimension(self, mini):
        sweep = mini.plan(ExperimentOptions(overrides={"num_pairs": [4]}))
        specs = [spec for spec, _tags in sweep.jobs()]
        assert len(specs) == 1
        assert specs[0].params["num_pairs"] == 4

    def test_unconsumed_overrides_are_rejected(self, mini):
        with pytest.raises(ValueError, match="unknown override"):
            run_experiment(
                "attack_matrix",
                ExperimentOptions(smoke=True, overrides={"defences": ["semantic_mining"]}),
            )
        # grid experiments consume everything they are given, so no error
        run_experiment(mini, ExperimentOptions(overrides={"num_pairs": [3]}))

    def test_bare_string_list_knobs_mean_one_name_not_characters(self):
        from repro.experiments.attack_matrix import AttackMatrixExperiment

        experiment = AttackMatrixExperiment()
        config = experiment.matrix_config(
            ExperimentOptions(
                smoke=True,
                overrides={"adversaries": "displacement", "defenses": "semantic_mining"},
            )
        )
        assert config.adversaries == ("displacement",)
        assert config.defenses == ("semantic_mining",)

    def test_seed_and_trials_options_take_precedence(self, mini):
        options = ExperimentOptions(seed=99, trials=2)
        assert mini.seed(options) == 99
        assert mini.trials(options) == 2
        assert len(mini.plan(options).jobs()) == 4

    def test_export_writes_all_artifacts(self, mini, tmp_path):
        run = run_experiment(mini)
        paths = run.export(tmp_path)
        assert sorted(paths) == ["claims", "csv", "json", "markdown"]
        rows = json.loads(paths["json"].read_text())
        assert len(rows) == 2
        # the declared export schema, nothing else
        assert sorted(rows[0]) == sorted(MiniExperiment.export_columns)
        claims = json.loads(paths["claims"].read_text())
        assert claims[0]["holds"] is True

    def test_exports_are_deterministic_across_runs(self, mini, tmp_path):
        first = run_experiment(mini).export(tmp_path / "a")
        second = run_experiment(mini).export(tmp_path / "b")
        for kind in first:
            assert first[kind].read_bytes() == second[kind].read_bytes()


class TestResumableSweeps:
    def test_interrupted_checkpoint_resumes_to_byte_identical_exports(
        self, mini, tmp_path
    ):
        """The acceptance criterion: truncate a checkpoint mid-sweep (the
        state an interrupted run leaves behind) and resume; every export is
        byte-identical to the uninterrupted run's."""
        full = tmp_path / "full.jsonl"
        run_full = run_experiment(mini, ExperimentOptions(checkpoint=full))
        exports_full = run_full.export(tmp_path / "full_out")

        lines = full.read_text().splitlines(keepends=True)
        assert len(lines) == 3  # header + 2 rows
        interrupted = tmp_path / "interrupted.jsonl"
        interrupted.write_text("".join(lines[:2]))  # header + first row only

        run_resumed = run_experiment(mini, ExperimentOptions(checkpoint=interrupted))
        exports_resumed = run_resumed.export(tmp_path / "resumed_out")
        for kind in exports_full:
            assert exports_full[kind].read_bytes() == exports_resumed[kind].read_bytes()

        # and the resumed checkpoint is now complete: a further run is a no-op
        # that still produces identical artifacts
        run_again = run_experiment(mini, ExperimentOptions(checkpoint=interrupted))
        assert run_again.frame.to_json() == run_resumed.frame.to_json()

    def test_checkpoint_for_a_different_grid_is_refused(self, mini, tmp_path):
        """Changing any knob changes the grid digest; resuming against the
        old file must refuse (its completed rows would be silently lost),
        not truncate hours of work."""
        from repro.api import CheckpointMismatchError

        path = tmp_path / "ck.jsonl"
        run_experiment(mini, ExperimentOptions(checkpoint=path))
        before = path.read_text()
        with pytest.raises(CheckpointMismatchError, match="different sweep"):
            run_experiment(mini, ExperimentOptions(checkpoint=path, seed=6))
        assert path.read_text() == before  # untouched

    def test_a_non_checkpoint_file_is_never_overwritten(self, mini, tmp_path):
        from repro.api import CheckpointMismatchError

        path = tmp_path / "notes.txt"
        path.write_text("precious user data\n")
        with pytest.raises(CheckpointMismatchError, match="not a sweep checkpoint"):
            run_experiment(mini, ExperimentOptions(checkpoint=path))
        assert path.read_text() == "precious user data\n"

    def test_corrupt_trailing_line_only_drops_that_row(self, mini, tmp_path):
        path = tmp_path / "ck.jsonl"
        run_experiment(mini, ExperimentOptions(checkpoint=path))
        text = path.read_text()
        lines = text.splitlines(keepends=True)
        truncated = "".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2]
        path.write_text(truncated)  # simulate a crash mid-append
        run = run_experiment(mini, ExperimentOptions(checkpoint=path))
        assert len(run.frame) == 2
        assert path.read_text() == text  # repaired and completed
