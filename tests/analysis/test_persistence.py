"""Tests for JSON persistence of simulation and experiment results."""

import json

import pytest

from repro.api import ExperimentOptions, Simulation, Sweep, run_experiment, run_simulation
from repro.api.engine import SimulationResult


def small_spec():
    return (
        Simulation.builder()
        .scenario("semantic_mining")
        .workload("market", num_buys=15, num_buyers=2, buys_per_set=3.0)
        .seed(2)
        .build()
    )


@pytest.fixture(scope="module")
def small_result():
    return run_simulation(small_spec())


class TestExperimentResultSerialization:
    def test_dict_contains_key_metrics(self, small_result):
        data = small_result.summary()
        assert data["spec"]["scenario"] == "semantic_mining"
        assert data["reports"]["buy"]["submitted"] == 15
        assert 0.0 <= data["efficiency"] <= 1.0

    def test_dict_is_json_encodable(self, small_result):
        text = json.dumps(small_result.summary())
        assert "semantic_mining" in text

    def test_save_and_load_round_trip(self, tmp_path):
        result = Sweep.from_specs([(small_spec(), {"trial": 0})]).run()
        path = tmp_path / "results" / "run.json"
        text = result.to_json(path)
        assert path.exists()
        restored = json.loads(path.read_text(encoding="utf-8"))
        assert restored == json.loads(text)
        assert restored[0]["tags"] == {"trial": 0}

    def test_save_json_handles_bytes_and_tuples(self):
        result = SimulationResult(
            spec=small_spec(),
            reports={},
            primary_label=None,
            blocks_produced=0,
            simulated_seconds=0.0,
            metrics=None,
            extras={"blob": b"\x01\x02", "pair": (1, 2)},
        )
        restored = json.loads(json.dumps(result.summary()))
        assert restored["extras"]["blob"] == "0x0102"
        assert restored["extras"]["pair"] == [1, 2]


class TestFigure2Serialization:
    def test_round_trip_preserves_points(self, tmp_path):
        options = ExperimentOptions(
            trials=1, overrides={"buys_per_set": [2.0], "num_buys": 15, "num_buyers": 2}
        )
        paths = run_experiment("figure2", options).export(tmp_path)
        restored = json.loads(paths["json"].read_text(encoding="utf-8"))
        assert [point["buys_per_set"] for point in restored] == [2.0] * 3
        for point in restored:
            assert 0.0 <= point["eta"] <= 1.0
            assert point["scenario"] in {"geth_unmodified", "sereth_client", "semantic_mining"}
