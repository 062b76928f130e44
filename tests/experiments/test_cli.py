"""Tests for the command-line interface."""

import json
import re

import pytest

from repro.api import EXPERIMENT_REGISTRY, ExperimentOptions
from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure2_defaults(self):
        arguments = build_parser().parse_args(["run", "figure2"])
        assert (arguments.command, arguments.experiment) == ("run", "figure2")
        figure2 = EXPERIMENT_REGISTRY.get("figure2")
        assert figure2.trials(ExperimentOptions()) == 2

    def test_market_scenario_choices(self):
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["sweep", "--workload", "market", "--scenarios", "nonsense"])

    def test_ablation_requires_name(self):
        with pytest.raises(SystemExit, match="unknown ablation"):
            main(["run", "ablation", "--smoke", "--set", "name=nonsense"])


class TestCommands:
    def test_market_command_runs(self, capsys):
        exit_code = main(
            [
                "sweep", "--workload", "market", "--scenarios", "semantic_mining",
                "--over", "buys_per_set=2", "num_buys=20", "--seed", "5",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Sweep — market" in output
        assert "efficiency" in output

    def test_sweep_over_bool_field_runs_both_values(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        exit_code = main(
            [
                "sweep", "--workload", "market", "--scenarios", "semantic_mining",
                "--over", "fixed_block_interval=false,true", "num_buys=4",
                "--json", str(path),
            ]
        )
        capsys.readouterr()
        assert exit_code == 0
        rows = json.loads(path.read_text(encoding="utf-8"))
        assert [row["summary"]["spec"]["fixed_block_interval"] for row in rows] == [False, True]

    def test_sequential_command_reports_perfect_efficiency(self, capsys):
        exit_code = main(["run", "sequential", "--smoke", "--seed", "2"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "| 1 | 1 |" in output  # buy_eta and set_eta both 1.0

    def test_frontrunning_command_runs(self, capsys):
        exit_code = main(["run", "frontrunning", "--smoke", "--seed", "3"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "overpaid" in output

    def test_oracle_command_runs(self, capsys):
        exit_code = main(["run", "oracle", "--smoke", "--seed", "4"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "mean_raa_latency" in output and "mean_oracle_latency" in output

    def test_figure2_command_small_sweep(self, capsys):
        exit_code = main(
            ["run", "figure2", "--smoke", "--set", "buys_per_set=1,10", "--seed", "3"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "geth_unmodified" in output
        assert "Claim gates" in output


class TestRemovedVerbs:
    """``run``/``sweep`` replaced the per-experiment verbs; none survives."""

    @pytest.mark.parametrize(
        "verb",
        ["figure2", "market", "sequential", "frontrunning", "oracle", "ablation", "attack-matrix"],
    )
    def test_legacy_verb_is_an_argparse_error(self, verb, capsys):
        with pytest.raises(SystemExit) as raised:
            main([verb])
        assert raised.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_help_lists_exactly_the_eight_verbs(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["--help"])
        assert raised.value.code == 0
        verbs = re.search(r"\{([^}]*)\}", capsys.readouterr().out).group(1)
        assert verbs.split(",") == ["run", "claims", "trace", "sweep", "serve", "loadgen", "golden", "list"]


class TestGenericExperimentCommands:
    def test_run_requires_an_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_run_unknown_experiment_is_a_usage_error(self):
        with pytest.raises(SystemExit, match="unknown experiment"):
            main(["run", "nonsense"])

    def test_bad_set_override_is_a_usage_error(self):
        with pytest.raises(SystemExit, match="--set"):
            main(["run", "sequential", "--set", "garbage"])

    def test_misspelled_override_name_is_a_usage_error(self):
        with pytest.raises(SystemExit, match="unknown override"):
            main(["run", "attack_matrix", "--smoke", "--set", "defences=semantic_mining"])

    def test_single_name_list_override_works(self, capsys):
        exit_code = main(
            ["run", "attack_matrix", "--smoke", "--set", "adversaries=displacement", "buys=6"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "displacement" in output

    def test_run_sequential_smoke(self, capsys):
        exit_code = main(["run", "sequential", "--smoke"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "sequential" in output
        assert "Claim gates" in output
        assert "buy_eta" in output

    def test_run_exports_and_checkpoints(self, tmp_path, capsys):
        checkpoint = tmp_path / "seq.jsonl"
        exit_code = main(
            [
                "run", "sequential", "--smoke",
                "--checkpoint", str(checkpoint),
                "--export", str(tmp_path / "out"),
            ]
        )
        assert exit_code == 0
        assert checkpoint.exists()
        assert (tmp_path / "out" / "sequential.json").exists()
        assert (tmp_path / "out" / "sequential_claims.json").exists()
        first_export = (tmp_path / "out" / "sequential.json").read_bytes()
        # resume: the checkpoint is complete, so this re-run executes nothing
        # new and reproduces the artifacts byte-identically
        exit_code = main(
            [
                "run", "sequential", "--smoke",
                "--checkpoint", str(checkpoint),
                "--export", str(tmp_path / "out2"),
            ]
        )
        capsys.readouterr()
        assert exit_code == 0
        assert (tmp_path / "out2" / "sequential.json").read_bytes() == first_export

    def test_run_set_override_reaches_the_workload(self, capsys):
        exit_code = main(["run", "sequential", "--smoke", "--set", "num_pairs=4"])
        assert exit_code == 0

    def test_claims_command_gates_on_the_smoke_grid(self, capsys):
        exit_code = main(["claims", "sequential"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Claim gates" in output
        assert "eta = 1.0" in output

    def test_list_experiments(self, capsys):
        exit_code = main(["list", "--experiments"])
        output = capsys.readouterr().out
        assert exit_code == 0
        for name in ("figure2", "sequential", "frontrunning", "oracle", "ablation", "attack_matrix"):
            assert name in output
        assert "claim gate" in output
