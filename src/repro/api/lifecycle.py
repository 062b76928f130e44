"""Cache lifecycle for simulation processes.

The engine keeps three per-process memos for speed: the keccak digest
cache, the ordered-trie-root cache and the genesis template cache.  All
three hold pure input->output pairs (the first two in bounded LRUs), so
warm sweep workers deliberately keep them across trials — clearing them
between trials would only cost time.

Nothing is scoped to a single trial any more: wire encodings live on the
chain objects that own them (see :mod:`repro.chain.wire`) and are released
with those objects, so a finished trial leaves nothing behind to clear.
"""

from __future__ import annotations

__all__ = ["reset_process_caches"]


def reset_process_caches() -> None:
    """Restore cold-start process state: every per-process memo dropped.

    For benchmarks and leak hunts, not for the per-trial path — warm
    workers keep the keccak/trie/genesis memos across trials on purpose.
    """
    from ..chain.genesis import clear_genesis_cache
    from ..chain.trie import clear_root_cache
    from ..crypto.keccak import clear_hash_cache

    clear_hash_cache()
    clear_root_cache()
    clear_genesis_cache()
