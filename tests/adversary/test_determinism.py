"""Adversary determinism: one root seed pins the whole attack trace.

The satellite requirement: the same spec and seed must produce an identical
attack trace and identical victim-harm metrics — run twice serially, and
run under the multiprocessing sweep.
"""

import json
from dataclasses import replace

import pytest

from repro.api import ExperimentOptions, ResultFrame, Simulation, Sweep, plan_experiment


def matrix_jobs():
    """The (spec, tags) grid of a small displacement-only attack matrix."""
    options = ExperimentOptions(
        seed=5,
        overrides={
            "adversaries": "displacement",
            "defenses": ["geth_unmodified", "semantic_mining"],
            "buys": 6,
            "control": False,
        },
    )
    _, _, sweep = plan_experiment("attack_matrix", options)
    return sweep.jobs()


def adversarial_spec(seed: int = 13):
    return (
        Simulation.builder()
        .scenario("sereth_client")
        .workload("victim_market", num_victim_buys=6, buy_interval=2.0)
        .adversary("displacement", markup=25)
        .adversary("suppression", burst=3)
        .miners(2)
        .clients(2)
        .gas(max_transactions_per_block=12)
        .seed(seed)
        .build()
    )


class TestSerialDeterminism:
    def test_same_seed_same_attack_trace_and_harm(self):
        first = Simulation(adversarial_spec()).run().summary()
        second = Simulation(adversarial_spec()).run().summary()
        assert first["adversaries"] == second["adversaries"]
        assert (
            first["adversaries"]["displacement"]["trace"]
            == second["adversaries"]["displacement"]["trace"]
        )
        assert first == second

    def test_different_seeds_differ(self):
        first = Simulation(adversarial_spec(seed=13)).run().summary()
        second = Simulation(adversarial_spec(seed=14)).run().summary()
        assert first["adversaries"] != second["adversaries"]

    def test_trace_is_json_serializable(self):
        summary = Simulation(adversarial_spec()).run().summary()
        text = json.dumps(summary["adversaries"], sort_keys=True)
        assert "displace" in text


class TestSweepDeterminism:
    @pytest.fixture(scope="class")
    def jobs(self):
        return matrix_jobs()

    def test_serial_equals_parallel_byte_for_byte(self, jobs):
        sweep = Sweep.from_specs(jobs)
        serial = sweep.run(workers=1)
        parallel = sweep.run(workers=2)
        assert serial.to_json() == parallel.to_json()

    def test_job_seeds_are_deterministic_and_distinct(self, jobs):
        seeds = [spec.seed for spec, _tags in jobs]
        assert len(seeds) == 2 and len(set(seeds)) == 2
        assert seeds == [spec.seed for spec, _tags in matrix_jobs()]


class TestSortedExports:
    """Satellite bugfix: exports emit keys in sorted order for clean diffs."""

    def test_csv_tag_columns_are_sorted(self):
        base = replace(
            Simulation.builder()
            .scenario("geth_unmodified")
            .workload("market", num_buys=4, num_buyers=2)
            .clients(2)
            .seed(3)
            .build(),
            settle_blocks=2,
        )
        result = (
            Sweep(base).over(num_buys=[4], buys_per_set=[1.0]).trials(1).run(workers=1)
        )
        header = ResultFrame.from_sweep(result).to_csv().splitlines()[0].split(",")
        tag_columns = header[: len(header) - 3]
        assert tag_columns == sorted(tag_columns)

    def test_json_keys_are_sorted(self):
        base = replace(
            Simulation.builder()
            .scenario("geth_unmodified")
            .workload("market", num_buys=4, num_buyers=2)
            .clients(2)
            .seed(3)
            .build(),
            settle_blocks=2,
        )
        result = Sweep(base).over(buys_per_set=[1.0]).trials(1).run(workers=1)
        rows = json.loads(result.to_json())
        for row in rows:
            assert list(row["tags"]) == sorted(row["tags"])
            assert list(row) == sorted(row)
