"""Plan-digest pins: every registered experiment expands to the same jobs.

``sweep_digest`` hashes a plan's full (spec, tags) job list, so the golden
store's ``plan_<experiment>_<smoke|full>`` entries hold every cell's spec,
seed and tags byte for byte, for the smoke and the full grid of all nine
experiments — without running a single cell.  A refactor of the sweep layer
that moves any of them changes what every export, checkpoint and claim is
computed from.
"""

from __future__ import annotations

import pytest

from repro.api.checkpoint import sweep_digest
from repro.api.experiment import EXPERIMENT_REGISTRY, ExperimentOptions, plan_experiment
from repro.golden import PLANNED, assert_holds, digest, stored


def test_every_registered_experiment_is_pinned():
    assert set(PLANNED) == set(EXPERIMENT_REGISTRY.names())


@pytest.mark.parametrize("smoke", [True, False], ids=["smoke", "full"])
@pytest.mark.parametrize("name", PLANNED)
def test_plan_digest_is_pinned(name, smoke):
    golden = f"plan_{name}_{'smoke' if smoke else 'full'}"
    assert_holds(golden)
    # The store hashes the same text sweep_digest does.
    _experiment, _options, sweep = plan_experiment(name, ExperimentOptions(smoke=smoke))
    assert sweep_digest(sweep.jobs()) == digest(stored(golden), "jsonl")
