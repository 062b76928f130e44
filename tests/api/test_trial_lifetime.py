"""A finished trial is freed by reference counting alone.

The network owns its peers, a peer's engine owns its HMS provider, an HMS
graph links nodes both ways, and an observed trial's tracer probes the
chain; each back link is weak (or skips the object that owns the tracer),
so no sweep job leaves a reference cycle behind.  Were one left, the
trial's world states would live until a cyclic collection ran (counting as
live in ``live_state_stats``, riding in the older generations, and adding
to peak RSS), so these checks run with the collector off.
"""

from __future__ import annotations

import gc

import pytest

from repro.api.experiment import ExperimentOptions, plan_experiment
from repro.api.sweep import _run_job
from repro.chain.state import live_state_stats

SCENARIOS = ("geth_unmodified", "sereth_client", "semantic_mining")


def figure2_job(scenario: str, observed: bool):
    _experiment, _options, sweep = plan_experiment("figure2", ExperimentOptions(workers=1, trials=1, seed=42))
    if observed:
        sweep = sweep.observed()
    return next(job for job in sweep.jobs() if job[1]["scenario"] == scenario)


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)  # keep whatever a collection finds, to name it
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
        gc.collect()


@pytest.mark.parametrize("observed", [False, True], ids=["untraced", "observed"])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_sweep_jobs_leave_no_cyclic_garbage_and_no_growing_states(scenario, observed, collector_off):
    job = figure2_job(scenario, observed)
    live = []
    for _ in range(3):
        _run_job(job)
        assert gc.collect() == 0, sorted({type(item).__name__ for item in gc.garbage})
        assert gc.garbage == []
        live.append(live_state_stats()["live_states"])
    # What stays live after a job is the process's templates only: the same
    # job leaves the same count, run after run.
    assert live[0] == live[1] == live[2], live
