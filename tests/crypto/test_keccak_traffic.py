"""``KECCAK_MEMO_SIZE`` is sized by measured reuse — re-measured here.

The keccak inputs of real runs (the one-trial ``figure2`` grid, every
scenario; a 2,000-block ``steady_state`` run shaped like the benchmark's
``horizon_15k``) are recorded and replayed through LRUs of several
capacities.  The shipped cap must keep >= 97 % of the hits an unbounded memo
would get; a future workload that needs a bigger cap fails here, with the
curve that says how big.
"""

from collections import OrderedDict

import pytest

from repro.api import ExperimentOptions, Simulation, plan_experiment, run_simulation
from repro.crypto import keccak as keccak_module
from repro.crypto.keccak import KECCAK_MEMO_SIZE, keccak256
from repro.memo import memo_stats

CAPACITIES = (16, 256, 1024, KECCAK_MEMO_SIZE, 4 * KECCAK_MEMO_SIZE)
RETAINED = 0.97


def lru_hits(stream, capacity=None):
    """Hits an LRU of ``capacity`` entries (``None``: unbounded) scores on ``stream``."""
    cache, hits = OrderedDict(), 0
    for item in stream:
        if item in cache:
            hits += 1
            cache.move_to_end(item)
        else:
            cache[item] = None
            if capacity is not None and len(cache) > capacity:
                cache.popitem(last=False)
    return hits


def figure2_specs():
    _experiment, _options, sweep = plan_experiment(
        "figure2", ExperimentOptions(workers=1, trials=1, seed=11)
    )
    return [spec for spec, _tags in sweep.jobs()]


def steady_state_specs():
    return [
        Simulation.builder()
        .scenario("geth_unmodified")
        .workload("steady_state", num_blocks=2_000, blocks_per_set=8)
        .miners(1)
        .clients(1)
        .block_interval(2.0, fixed=True)
        .retention(64)
        .seed(11)
        .build()
    ]


@pytest.mark.parametrize("specs", [figure2_specs, steady_state_specs])
def test_shipped_cap_keeps_the_hits_of_an_unbounded_memo(specs, monkeypatch):
    stream = []
    keccak256(b"")  # installs the memo the seam holds from then on
    memo = keccak_module._digest

    def recording(data):
        stream.append(data)
        return memo(data)

    monkeypatch.setattr(keccak_module, "_digest", recording)
    before = memo_stats()["keccak256"]
    for spec in specs():
        run_simulation(spec)
    after = memo_stats()["keccak256"]
    monkeypatch.undo()

    unbounded = lru_hits(stream)
    assert unbounded > 1_000, "the recording saw no real traffic"
    counted = after["hits"] + after["misses"] - before["hits"] - before["misses"]
    assert counted == len(stream), "every digest the memo counted passed the seam"
    curve = {capacity: lru_hits(stream, capacity) for capacity in CAPACITIES}
    assert curve[KECCAK_MEMO_SIZE] >= RETAINED * unbounded, (
        f"KECCAK_MEMO_SIZE={KECCAK_MEMO_SIZE} keeps {curve[KECCAK_MEMO_SIZE]} of the "
        f"{unbounded} hits an unbounded memo gets on {len(stream)} inputs; "
        f"hits by capacity: {curve}"
    )
