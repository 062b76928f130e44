"""Golden-checksum determinism under the copy-on-write engine.

The golden store's ``golden_sweep`` entry was recorded on the
pre-copy-on-write engine (before the apply cache, warm workers, zero-copy
gossip, and the native keccak backend existed): every execution mode of the
same sweep — serial, parallel, and killed-and-resumed — must keep
reproducing it byte for byte.  If an engine change breaks this test, it
changed observable output, which the performance work is contractually
forbidden from doing.
"""

import json
from pathlib import Path

from repro.experiments.chaos import golden_sweep
from repro.golden import assert_holds


def export(result):
    """A sweep result's export, as the value the store pins."""
    return json.loads(result.to_json())


class TestGoldenChecksums:
    def test_serial_matches_committed_checksum(self):
        assert_holds("golden_sweep", export(golden_sweep().run(workers=1)))

    def test_parallel_matches_committed_checksum(self):
        assert_holds("golden_sweep", export(golden_sweep().run(workers=2)))

    def test_resumed_matches_committed_checksum(self, tmp_path: Path):
        checkpoint = tmp_path / "golden.jsonl"
        sweep = golden_sweep()
        # Run once to completion, writing the checkpoint; truncate it to a
        # strictly partial state; resume — the resumed export must still be
        # the golden bytes.
        sweep.run(workers=1, checkpoint=checkpoint)
        lines = checkpoint.read_text(encoding="utf-8").splitlines(keepends=True)
        assert len(lines) > 2, "checkpoint must hold a header plus rows"
        checkpoint.write_text("".join(lines[:2]), encoding="utf-8")
        resumed = sweep.run(workers=1, checkpoint=checkpoint)
        assert_holds("golden_sweep", export(resumed))
