"""The one bounded-memo primitive: ``functools.lru_cache`` plus a registry.

``lru_cache`` does the caching (C speed; lookup, insert and eviction run
under its own lock, so a concurrent clear cannot tear them).  This module
only remembers which memos exist, so ``reset_process_caches()`` and the
``memos`` probe find them without a hand-kept list.  A memo holds pure
``key -> value`` pairs — clearing or evicting costs time, never changes a
result — under a cap that is a constant sized from measured reuse.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable, Dict

__all__ = ["bounded_memo", "rebind_memo", "clear_memos", "memo_stats"]

_MEMOS: Dict[str, Any] = {}


def bounded_memo(name: str, maxsize: int) -> Callable[[Callable[..., Any]], Any]:
    """Decorator: ``lru_cache(maxsize)`` registered under the unique ``name``."""

    def register(function: Callable[..., Any]) -> Any:
        if name in _MEMOS:
            raise ValueError(f"memo {name!r} is already registered")
        memo = _MEMOS[name] = lru_cache(maxsize=maxsize)(function)
        return memo

    return register


def rebind_memo(name: str, function: Callable[..., Any]) -> Any:
    """Register a fresh memo of ``function`` under ``name``'s cap in place of
    the registered one, and return it: for a memo whose function is chosen by
    a lazy probe, so the cache can wrap that function directly."""
    memo = _MEMOS[name] = lru_cache(maxsize=_MEMOS[name].cache_info().maxsize)(function)
    return memo


def clear_memos() -> None:
    """Drop every registered memo's entries (and its hit/miss counters)."""
    for memo in _MEMOS.values():
        memo.cache_clear()


def memo_stats() -> Dict[str, Dict[str, int]]:
    """``{name: {hits, max_size, misses, size}}`` for every registered memo."""
    readings = {}
    for name in sorted(_MEMOS):
        hits, misses, max_size, size = _MEMOS[name].cache_info()
        readings[name] = {"hits": hits, "max_size": max_size, "misses": misses, "size": size}
    return readings
