"""``SHAPE_MEMO_SIZE`` is sized by measured reuse — re-measured here.

The list lengths ``ordered_trie_root`` is asked for in real runs (the
one-trial ``figure2`` grid, every scenario; a 2,000-block ``steady_state``
run shaped like the benchmark's ``horizon_15k``) are recorded and replayed
through LRUs of several capacities.  The shipped cap must keep >= 97 % of the
hits an unbounded memo would get; a future workload that commits lists of
more distinct lengths fails here, with the curve that says how big.
"""

import pytest

from repro.api import run_simulation
from repro.chain import trie as trie_module
from repro.chain.trie import SHAPE_MEMO_SIZE
from tests.crypto.test_keccak_traffic import RETAINED, figure2_specs, lru_hits, steady_state_specs

CAPACITIES = (8, 16, 32, SHAPE_MEMO_SIZE, 4 * SHAPE_MEMO_SIZE)


@pytest.mark.parametrize("specs", [figure2_specs, steady_state_specs])
def test_shape_cap_keeps_the_hits_of_an_unbounded_memo(specs, monkeypatch):
    stream = []
    memo = trie_module._ordered_shape

    def recording(count):
        stream.append(count)
        return memo(count)

    monkeypatch.setattr(trie_module, "_ordered_shape", recording)
    for spec in specs():
        run_simulation(spec)
    monkeypatch.undo()

    unbounded = lru_hits(stream)
    assert unbounded > 100, "the recording saw no real traffic"
    curve = {capacity: lru_hits(stream, capacity) for capacity in CAPACITIES}
    assert curve[SHAPE_MEMO_SIZE] >= RETAINED * unbounded, (
        f"SHAPE_MEMO_SIZE={SHAPE_MEMO_SIZE} keeps {curve[SHAPE_MEMO_SIZE]} of the "
        f"{unbounded} hits an unbounded memo gets on {len(stream)} lengths "
        f"({len(set(stream))} distinct); hits by capacity: {curve}"
    )
