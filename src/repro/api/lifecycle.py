"""Cache lifecycle for simulation processes.

Every per-process memo (keccak digests, genesis templates, parsed ABI array
types) is a :func:`repro.memo.bounded_memo`: pure input->output pairs under
a fixed cap.  A process of any lifetime therefore holds bounded memory, and
warm sweep workers keep their memos across trials on purpose — clearing
them between trials would only cost time.  Nothing is scoped to one trial:
wire encodings live on the chain objects that own them (see
:mod:`repro.chain.wire`) and go when those objects do.
"""

from __future__ import annotations

from ..memo import clear_memos

__all__ = ["reset_process_caches"]


def reset_process_caches() -> None:
    """Restore cold-start process state (every registered memo dropped): for
    benchmarks and leak hunts, never on the per-trial path."""
    clear_memos()
