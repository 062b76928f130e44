"""Wire encodings: the RLP bytes a gossiped artefact would put on the wire.

The discrete-event network passes Python objects between peers for speed,
but a real devp2p network ships RLP byte strings, so the gossip layer
accounts those bytes for traffic statistics.  (Nothing in the program
decodes them; the tests hold the decoder that round-trips every gossiped
artefact.)

Encoding is owned by the objects: every artefact (``Transaction``,
``BlockHeader``, ``Block``, ``Receipt``) is a sealed record that derives its
``wire`` bytes at most once and keeps them, in its ``_wire`` slot, for as
long as it lives (a header derives them as it is built).
:func:`wire_encoding` is the one counted, traced seam the gossip layer calls: a *miss* is the call
that derived an object's bytes (timed as the ``gossip_encode`` phase), a
*hit* one that found them on the object.  Nothing is held here, so there is
nothing to clear between trials and nothing for threads to contend on.
"""

from __future__ import annotations

from time import perf_counter
from typing import Union

from ..obs import runtime as _obs
from .block import Block, BlockHeader
from .receipt import Receipt
from .transaction import Transaction

__all__ = ["wire_encoding", "wire_cache_stats"]


# -- the gossip layer's seam -------------------------------------------------------------

_WIRE_TYPES = (Transaction, Block, BlockHeader, Receipt)

_WIRE_STATS = {"hits": 0, "misses": 0}


def wire_encoding(artefact: Union[Transaction, Block, BlockHeader, Receipt]) -> bytes:
    """The artefact's wire encoding, derived at most once per immutable object.

    Gossiped artefacts are immutable once sealed, so the gossip layer hands
    the *same* frozen object to every neighbour and accounts the bytes it
    would have put on a real wire (for traffic accounting and persisted
    traces) instead of paying an encode/decode round trip per hop.  The
    bytes live on the artefact: this only counts whether it found them there
    (a hit) or derived them (a miss, timed as the ``gossip_encode`` phase).
    """
    if type(artefact) not in _WIRE_TYPES:
        raise TypeError(f"no wire encoding for {type(artefact).__name__}")
    payload = artefact._wire  # each record keeps its derived bytes in this slot
    if payload is not None:
        _WIRE_STATS["hits"] += 1
        return payload
    tracer = _obs.TRACER
    start = perf_counter() if tracer is not None else 0.0
    payload = artefact.wire
    if tracer is not None:
        tracer.phase("gossip_encode", start)
    _WIRE_STATS["misses"] += 1
    return payload


def wire_cache_stats() -> dict:
    """Hit/miss counters of :func:`wire_encoding`.

    A miss is a call that derived the artefact's bytes (its first
    ``wire_encoding``); a hit is one that found them on the object — a block
    range sync offers again, a transaction re-announced, any header (a
    header derives its bytes as it is built).  Receipts cache their bytes
    too: a block's wire form frames each receipt's once.  The counters
    are plain ints: exact on one thread, advisory under several.
    """
    return dict(_WIRE_STATS)
