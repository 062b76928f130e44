"""Ordered Merkle roots: how a block commits to its transaction and receipt lists.

The yellow paper (appendix D) commits to a list with the root of a hexary
Merkle Patricia trie keyed by RLP-encoded list index.  The chain needs only
that root, never the trie, so :func:`ordered_trie_root` computes it the way
go-ethereum's ``DeriveSha`` does: from the shape the trie would have for the
list's length, encoded bottom-up straight to bytes.

Node model (per the yellow paper, appendix D):

* **leaf** — ``[encoded_path, value]`` with an odd/even hex-prefix flag;
* **extension** — ``[encoded_path, child]`` sharing a common nibble prefix;
* **branch** — a 17-item node: one child per nibble plus a value slot.

Nodes shorter than 32 bytes are embedded in their parent; longer nodes are
referenced by their Keccak-256 hash.  The tests hold these roots to a
from-scratch trie root and to Ethereum's published trie test vectors.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..crypto.keccak import keccak256
from ..encoding.rlp import _encode_string, rlp_encode, rlp_list
from ..memo import bounded_memo

__all__ = ["EMPTY_ROOT", "ordered_trie_root"]

EMPTY_ROOT = bytes.fromhex("56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421")
"""``keccak256(rlp_encode(b""))`` — the root of an empty trie, and so of every
empty block's transaction and receipt lists.  Written out (tests pin it to
the formula) so importing the chain hashes nothing and does not load the
native keccak."""


def _to_nibbles(key: bytes) -> List[int]:
    nibbles: List[int] = []
    for byte in key:
        nibbles.append(byte >> 4)
        nibbles.append(byte & 0x0F)
    return nibbles


def _hex_prefix_encode(nibbles: Sequence[int], is_leaf: bool) -> bytes:
    """Encode a nibble path with the odd/even + leaf/extension flag nibble."""
    flag = 2 if is_leaf else 0
    if len(nibbles) % 2 == 1:
        prefixed = [flag + 1] + list(nibbles)
    else:
        prefixed = [flag, 0] + list(nibbles)
    return bytes(
        (prefixed[index] << 4) | prefixed[index + 1] for index in range(0, len(prefixed), 2)
    )


def _common_prefix_length(left: Sequence[int], right: Sequence[int]) -> int:
    length = 0
    for a, b in zip(left, right):
        if a != b:
            break
        length += 1
    return length


# The trie keyed by rlp(0) .. rlp(n - 1) has a shape that depends on n alone:
# nested (_LEAF, path, index), (_EXTENSION, path, child) and (_BRANCH, parts)
# tuples with every path already RLP-encoded.  A branch's parts are its child
# shapes with each run of empty slots as one constant (RLP keys are prefix-free,
# so the value slot is always empty).  Values are encoded into it bottom-up.

_LEAF, _EXTENSION, _BRANCH = 0, 1, 2

SHAPE_MEMO_SIZE = 64
"""Distinct list lengths kept.  The knee of the hit curve: replaying one
``figure2_sweep`` repeat's 1,108 lengths (69 distinct, up to 131) through an
LRU of 32 / 64 / unbounded gives 972 / 1,039 / 1,039 hits; every other bench
workload uses at most 13 lengths.  ``tests/chain/test_trie_shape_traffic.py``
re-measures it."""


def _shape(keys: List[Tuple[List[int], int]], depth: int):
    """The subtree over sorted ``(nibbles, index)`` keys sharing ``depth`` nibbles."""
    first = keys[0][0]
    if len(keys) == 1:
        return (_LEAF, _encode_string(_hex_prefix_encode(first[depth:], True)), keys[0][1])
    common = _common_prefix_length(first[depth:], keys[-1][0][depth:])
    if common:
        path = _encode_string(_hex_prefix_encode(first[depth : depth + common], False))
        return (_EXTENSION, path, _shape(keys, depth + common))
    parts: List[object] = []
    for nibble in range(17):
        group = [key for key in keys if key[0][depth] == nibble]
        if group:
            parts.append(_shape(group, depth + 1))
        elif parts and type(parts[-1]) is bytes:
            parts[-1] += b"\x80"
        else:
            parts.append(b"\x80")
    return (_BRANCH, tuple(parts))


@bounded_memo("ordered_trie_shape", SHAPE_MEMO_SIZE)
def _ordered_shape(count: int):
    """Keyed by length and holding no values: clearing it only costs a rebuild."""
    return _shape(sorted((_to_nibbles(rlp_encode(index)), index) for index in range(count)), 0)


def _reference(shape, values: Sequence[bytes]) -> bytes:
    """A node as its parent holds it: its RLP encoding if shorter than 32
    bytes, else the RLP string of that encoding's hash."""
    kind = shape[0]
    if kind == _LEAF:
        value = values[shape[2]]
        if not value:
            raise ValueError("an ordered trie cannot commit an empty value")
        encoded = rlp_list(shape[1] + _encode_string(bytes(value)))
    elif kind == _EXTENSION:
        encoded = rlp_list(shape[1] + _reference(shape[2], values))
    else:
        encoded = rlp_list(
            b"".join([part if type(part) is bytes else _reference(part, values) for part in shape[1]])
        )
    return encoded if len(encoded) < 32 else b"\xa0" + keccak256(encoded)


def ordered_trie_root(values: Sequence[bytes]) -> bytes:
    """Root of the trie keyed by RLP-encoded list index — how Ethereum commits
    to a block's transaction and receipt lists (go-ethereum's ``DeriveSha``).

    The root of the trie holding every ``(rlp(index), value)``, with the
    keccak inputs building that trie would hash, but computed from the
    per-length shape (:func:`_ordered_shape`) instead of node objects.
    Values must be non-empty: in a trie an empty value is an absent key.
    """
    if not values:
        return EMPTY_ROOT
    reference = _reference(_ordered_shape(len(values)), values)
    # A hashed root node is its own hash; an embedded one is hashed now.
    return reference[1:] if len(reference) == 33 else keccak256(reference)
