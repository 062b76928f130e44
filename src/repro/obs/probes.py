"""The counter/gauge probe registry behind ``obs.snapshot()``.

A *probe* is a named zero-argument callable returning a JSON-ready dict
with sorted keys (flat, except ``memos``: one sub-dict per registered memo).
The registry subsumes the engine's scattered ``*_stats()`` surfaces: the old
free functions still exist (they are now thin wrappers the probes call), but
one ``snapshot()`` reads them all.

Two scopes exist:

* **process-global probes** live here and read process-wide counters
  (the keccak digest cache, the wire-encoding counters, live CoW state
  instances).  They are registered at import time via lazy imports so
  this module never drags the chain/crypto stack in eagerly;
* **per-trial probes** (this run's network counters, propagation
  percentiles, head-state RSS) are registered on the active
  :class:`~repro.obs.tracer.Tracer` by the engine, and appear merged into
  ``Tracer.snapshot()`` alongside the global ones.

``register_probe`` is public API — the README's "registering a custom
probe" walkthrough targets exactly this function.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from ..memo import memo_stats

__all__ = ["register_probe", "unregister_probe", "probe_names", "snapshot"]

ProbeFn = Callable[[], Dict[str, Any]]

_REGISTRY: Dict[str, ProbeFn] = {}


def register_probe(name: str, probe: ProbeFn) -> None:
    """Register (or replace) the process-global probe ``name``.

    ``probe`` must return a JSON-serialisable dict; it is called lazily,
    only when someone snapshots, so it may be arbitrarily cheap to
    register and moderately expensive to read.
    """
    if not name:
        raise ValueError("probe name must be non-empty")
    _REGISTRY[name] = probe


def unregister_probe(name: str) -> None:
    """Remove a probe registered with :func:`register_probe` (missing ok)."""
    _REGISTRY.pop(name, None)


def probe_names() -> List[str]:
    """All registered process-global probe names, sorted."""
    return sorted(_REGISTRY)


def snapshot() -> Dict[str, Dict[str, Any]]:
    """Read every registered probe: ``{name: {counter: value, ...}}``.

    Names and each probe's keys come back sorted, so the snapshot
    round-trips through ``json.dumps`` byte-stably.
    """
    return {
        name: {key: reading[key] for key in sorted(reading)}
        for name, reading in ((name, _REGISTRY[name]()) for name in sorted(_REGISTRY))
    }


# -- built-in probes: the pre-existing *_stats() surfaces, adopted ----------------


def _wire_cache_probe() -> Dict[str, Any]:
    """``wire_encoding()`` hit/miss counters (bytes found on / derived for the object)."""
    from ..chain.wire import wire_cache_stats

    return wire_cache_stats()


def _hash_cache_probe() -> Dict[str, Any]:
    """Keccak digest memo hit/miss counters (the ``keccak256`` entry of ``memos``)."""
    from ..crypto import keccak  # noqa: F401  (declares the memo)

    return memo_stats()["keccak256"]


def _live_state_probe() -> Dict[str, Any]:
    """Live AccountState instances (the retention window's working set)."""
    from ..chain.state import live_state_stats

    return live_state_stats()


register_probe("wire_cache", _wire_cache_probe)
register_probe("hash_cache", _hash_cache_probe)
register_probe("memos", memo_stats)
register_probe("live_state", _live_state_probe)
