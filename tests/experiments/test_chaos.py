"""The chaos experiment's plan, determinism, and claim plumbing.

The full claim-gated smoke run lives in the CI ``chaos-smoke`` job (it
re-runs the golden sweep, which is too slow for the unit tier); these tests
pin everything around it — the grid is deterministic, a faulted cell's rows
are byte-identical serial vs parallel, and the experiment's committed golden
checksum can never drift away from the determinism suite's.
"""

from __future__ import annotations

import pytest

from repro.api.checkpoint import spec_digest
from repro.api.experiment import EXPERIMENT_REGISTRY, ExperimentOptions, plan_experiment
from repro.experiments import chaos
from tests.api.test_golden_determinism import (
    GOLDEN_SWEEP_SHA256 as DETERMINISM_SUITE_SHA256,
)

pytestmark = pytest.mark.filterwarnings("error")


def chaos_sweep(mixes, intensities, scenarios, buys):
    """The planned chaos sweep over one fault grid (trials 1, seed 23)."""
    options = ExperimentOptions(
        seed=23,
        trials=1,
        overrides=dict(mixes=mixes, intensities=intensities, scenarios=scenarios, buys=buys),
    )
    return plan_experiment("chaos", options)[2]


class TestGrid:
    def test_registered(self):
        assert "chaos" in EXPERIMENT_REGISTRY

    def test_golden_checksum_matches_determinism_suite(self):
        # The chaos experiment's third claim re-runs the determinism suite's
        # golden sweep: if either copy of the checksum is bumped without the
        # other, the claim gate and the test suite would silently disagree.
        assert chaos.GOLDEN_SWEEP_SHA256 == DETERMINISM_SUITE_SHA256

    def test_jobs_are_deterministic(self):
        grid = (["messages", "crash"], ["light"], ["semantic_mining"], 4)
        first = chaos_sweep(*grid).jobs()
        second = chaos_sweep(*grid).jobs()
        assert [(spec_digest(spec), tags) for spec, tags in first] == [
            (spec_digest(spec), tags) for spec, tags in second
        ]

    def test_cells_are_uniquely_seeded(self):
        jobs = chaos_sweep(
            ["messages", "crash", "combined"],
            ["light", "heavy"],
            ["geth_unmodified", "semantic_mining"],
            4,
        ).jobs()
        seeds = [tags["seed"] for _, tags in jobs]
        assert len(set(seeds)) == len(seeds) == 12

    def test_smoke_plan_shape(self):
        experiment = EXPERIMENT_REGISTRY.get("chaos")
        sweep = experiment.plan(ExperimentOptions(smoke=True))
        jobs = sweep.jobs()
        assert len(jobs) == 4
        assert all(spec.faults for spec, _ in jobs)

    def test_unknown_mix_rejected(self):
        with pytest.raises(ValueError, match="unknown fault mix"):
            chaos_sweep(["entropy"], ["light"], ["semantic_mining"], 2)


class TestFaultedDeterminism:
    def test_serial_equals_parallel_with_faults_on(self):
        sweep = chaos_sweep(["combined"], ["light"], ["semantic_mining"], 2)
        serial = sweep.run(workers=1).to_json()
        parallel = sweep.run(workers=2).to_json()
        assert serial == parallel
