"""A hexary Merkle Patricia trie, Ethereum's authenticated key/value structure.

The chain substrate commits to its transaction and receipt lists with the
roots of this trie keyed by RLP-encoded list index (as the yellow paper
specifies), so the roots in block headers are real Merkle roots.
:func:`ordered_trie_root` computes them from a per-length shape without
building the trie; :class:`MerklePatriciaTrie` is the general structure it
is tested against, with the logarithmic inclusion proofs a light client
holding only a root would check (the proof helpers at the bottom of this
module).

Node model (per the yellow paper, appendix D):

* **leaf** — ``[encoded_path, value]`` with an odd/even hex-prefix flag;
* **extension** — ``[encoded_path, child]`` sharing a common nibble prefix;
* **branch** — a 17-item node: one child per nibble plus a value slot.

Nodes shorter than 32 bytes are embedded in their parent; longer nodes are
referenced by their Keccak-256 hash, exactly like the real structure, so
roots computed here match the shape (and the collision resistance) of
Ethereum's, even though this reproduction does not need byte-for-byte
mainnet compatibility.

Incremental commitment: every node memoises its RLP form and its reference
(inline RLP or hash).  A ``put``/``delete`` clears those memos only along the
mutated path, so a subsequent ``root()`` re-encodes O(changed path) nodes
instead of the whole structure — the difference between per-block commits
costing O(depth) and O(n) as history grows.  ``delete`` is structural
(leaf removal with extension/branch collapse), not a rebuild.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..crypto.keccak import keccak256
from ..encoding.rlp import _encode_string, rlp_decode, rlp_encode, rlp_list
from ..memo import bounded_memo

__all__ = [
    "MerklePatriciaTrie",
    "ordered_trie_root",
    "verify_proof",
    "ProofError",
]

EMPTY_ROOT = bytes.fromhex("56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421")
"""``keccak256(rlp_encode(b""))`` — the root of an empty trie, and so of every
empty block's transaction and receipt lists.  Written out (tests pin it to
the formula) so importing the chain hashes nothing and does not load the
native keccak."""


class ProofError(ValueError):
    """Raised when a Merkle proof does not verify against the claimed root."""


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


def _hex_prefix_decode(encoded: bytes) -> Tuple[List[int], bool]:
    nibbles = _to_nibbles(encoded)
    flag = nibbles[0]
    is_leaf = flag >= 2
    if flag % 2 == 1:
        path = nibbles[1:]
    else:
        path = nibbles[2:]
    return path, is_leaf


def _common_prefix_length(left: Sequence[int], right: Sequence[int]) -> int:
    length = 0
    for a, b in zip(left, right):
        if a != b:
            break
        length += 1
    return length


class _Node:
    """Base of the three node kinds; carries the encoding memo.

    ``rlp_memo`` is the node's RLP structure, ``ref_memo`` the parent-visible
    reference (the RLP structure itself when its encoding is < 32 bytes, the
    32-byte Keccak hash otherwise).  Both are cleared whenever the node or
    anything beneath it changes; mutation helpers on the trie clear them
    bottom-up along exactly the touched path.
    """

    __slots__ = ("rlp_memo", "ref_memo")

    kind = ""

    def __init__(self) -> None:
        self.rlp_memo = None
        self.ref_memo = None

    def invalidate(self) -> None:
        self.rlp_memo = None
        self.ref_memo = None


class _Leaf(_Node):
    __slots__ = ("path", "value")

    kind = "leaf"

    def __init__(self, path: List[int], value: bytes) -> None:
        super().__init__()
        self.path = path
        self.value = value


class _Extension(_Node):
    __slots__ = ("path", "child")

    kind = "ext"

    def __init__(self, path: List[int], child: "_Node") -> None:
        super().__init__()
        self.path = path
        self.child = child


class _Branch(_Node):
    __slots__ = ("children", "value")

    kind = "branch"

    def __init__(self, children: List[Optional["_Node"]], value: Optional[bytes]) -> None:
        super().__init__()
        self.children = children
        self.value = value

    def child_count(self) -> int:
        return sum(1 for child in self.children if child is not None)


class MerklePatriciaTrie:
    """An in-memory hexary Merkle Patricia trie with proofs.

    Node encodings are memoised per node and invalidated along the mutated
    path, so ``root()`` after k single-key updates costs O(k · depth)
    re-encodings regardless of how many keys the trie holds.
    """

    def __init__(self) -> None:
        self._root_node: Optional[_Node] = None
        self._items: Dict[bytes, bytes] = {}

    # -- public API -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: object) -> bool:
        return key in self._items

    def get(self, key: bytes) -> Optional[bytes]:
        """Return the value stored at ``key`` or None."""
        return self._items.get(bytes(key))

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or update ``key`` with ``value`` (empty value deletes)."""
        key = bytes(key)
        value = bytes(value)
        if not value:
            self.delete(key)
            return
        self._items[key] = value
        self._root_node = self._insert(self._root_node, _to_nibbles(key), value)

    def delete(self, key: bytes) -> None:
        """Remove ``key`` (no-op when absent) by structural deletion: the
        leaf is unlinked and any single-child branches / chained extensions
        left behind collapse back into canonical form."""
        key = bytes(key)
        if key not in self._items:
            return
        del self._items[key]
        self._root_node = self._delete(self._root_node, _to_nibbles(key))

    def root(self) -> bytes:
        """The 32-byte Merkle root (the hash of the empty string for an empty trie)."""
        node = self._root_node
        if node is None:
            return EMPTY_ROOT
        reference = self._encode_node(node)
        if isinstance(reference, bytes) and len(reference) == 32:
            return reference
        # The root node is embedded (its encoding is < 32 bytes): the root is
        # the hash of that encoding.
        return keccak256(rlp_encode(self._node_to_rlp(node)))

    def items(self) -> List[Tuple[bytes, bytes]]:
        return sorted(self._items.items())

    # -- proofs -----------------------------------------------------------------------

    def prove(self, key: bytes) -> List[bytes]:
        """Return the list of RLP-encoded nodes on the path from root to ``key``."""
        proof: List[bytes] = []
        node = self._root_node
        nibbles = _to_nibbles(bytes(key))
        while node is not None:
            proof.append(rlp_encode(self._node_to_rlp(node)))
            if node.kind == "leaf":
                break
            if node.kind == "ext":
                path = node.path
                if nibbles[: len(path)] != path:
                    break
                nibbles = nibbles[len(path):]
                node = node.child
                continue
            # branch
            if not nibbles:
                break
            node = node.children[nibbles[0]]
            nibbles = nibbles[1:]
        return proof

    # -- insertion ---------------------------------------------------------------------

    def _insert(self, node: Optional[_Node], nibbles: List[int], value: bytes) -> _Node:
        if node is None:
            return _Leaf(nibbles, value)
        if node.kind == "leaf":
            return self._insert_into_leaf(node, nibbles, value)
        if node.kind == "ext":
            return self._insert_into_extension(node, nibbles, value)
        return self._insert_into_branch(node, nibbles, value)

    def _insert_into_leaf(self, node: _Leaf, nibbles: List[int], value: bytes) -> _Node:
        if node.path == nibbles:
            node.value = value
            node.invalidate()
            return node
        common = _common_prefix_length(node.path, nibbles)
        branch_children: List[Optional[_Node]] = [None] * 16
        branch_value: Optional[bytes] = None
        remaining_existing = node.path[common:]
        remaining_new = nibbles[common:]
        if not remaining_existing:
            branch_value = node.value
        else:
            branch_children[remaining_existing[0]] = _Leaf(remaining_existing[1:], node.value)
        if not remaining_new:
            branch_value = value
        else:
            branch_children[remaining_new[0]] = _Leaf(remaining_new[1:], value)
        branch = _Branch(branch_children, branch_value)
        if common:
            return _Extension(nibbles[:common], branch)
        return branch

    def _insert_into_extension(self, node: _Extension, nibbles: List[int], value: bytes) -> _Node:
        common = _common_prefix_length(node.path, nibbles)
        if common == len(node.path):
            node.child = self._insert(node.child, nibbles[common:], value)
            node.invalidate()
            return node
        branch_children: List[Optional[_Node]] = [None] * 16
        branch_value: Optional[bytes] = None
        # The existing extension's remainder.
        remaining_path = node.path[common:]
        if len(remaining_path) == 1:
            descendant: _Node = node.child
        else:
            descendant = _Extension(remaining_path[1:], node.child)
        branch_children[remaining_path[0]] = descendant
        # The new key's remainder.
        remaining_new = nibbles[common:]
        if not remaining_new:
            branch_value = value
        else:
            branch_children[remaining_new[0]] = _Leaf(remaining_new[1:], value)
        branch = _Branch(branch_children, branch_value)
        if common:
            return _Extension(nibbles[:common], branch)
        return branch

    def _insert_into_branch(self, node: _Branch, nibbles: List[int], value: bytes) -> _Node:
        if not nibbles:
            node.value = value
            node.invalidate()
            return node
        index = nibbles[0]
        node.children[index] = self._insert(node.children[index], nibbles[1:], value)
        node.invalidate()
        return node

    # -- deletion ----------------------------------------------------------------------

    def _delete(self, node: Optional[_Node], nibbles: List[int]) -> Optional[_Node]:
        """Remove ``nibbles`` from the subtree under ``node``; returns the
        canonical replacement subtree (None when it becomes empty).

        The caller guarantees the key is present, so every path below ends in
        a leaf removal or a branch-value clear; on the way back up any branch
        left with a single child and no value collapses into its child.
        """
        if node is None:  # pragma: no cover - guarded by the item map
            return None
        if node.kind == "leaf":
            # The item map guarantees node.path == nibbles.
            return None
        if node.kind == "ext":
            node.child = self._delete(node.child, nibbles[len(node.path):])
            return self._collapse_extension(node)
        # branch
        if not nibbles:
            node.value = None
        else:
            index = nibbles[0]
            node.children[index] = self._delete(node.children[index], nibbles[1:])
        return self._collapse_branch(node)

    def _collapse_extension(self, node: _Extension) -> Optional[_Node]:
        """Re-canonicalise an extension whose child subtree just changed."""
        child = node.child
        if child is None:
            return None
        if child.kind == "leaf":
            # ext(p) + leaf(q) -> leaf(p + q)
            return _Leaf(node.path + child.path, child.value)
        if child.kind == "ext":
            # ext(p) + ext(q) -> ext(p + q)
            return _Extension(node.path + child.path, child.child)
        node.invalidate()
        return node

    def _collapse_branch(self, node: _Branch) -> Optional[_Node]:
        """Collapse a branch that may have lost children or its value."""
        count = node.child_count()
        if count == 0:
            if node.value is None:
                return None
            # Only the value slot remains: the branch becomes a leaf with an
            # empty path.
            return _Leaf([], node.value)
        if count == 1 and node.value is None:
            # A single child: splice the branch out, prefixing the child with
            # the nibble that selected it.
            index = next(
                child_index
                for child_index, child in enumerate(node.children)
                if child is not None
            )
            child = node.children[index]
            if child.kind == "leaf":
                return _Leaf([index] + child.path, child.value)
            if child.kind == "ext":
                return _Extension([index] + child.path, child.child)
            return _Extension([index], child)
        node.invalidate()
        return node

    # -- encoding -----------------------------------------------------------------------

    def _node_to_rlp(self, node: _Node):
        memo = node.rlp_memo
        if memo is not None:
            return memo
        if node.kind == "leaf":
            rlp_form = [_hex_prefix_encode(node.path, True), node.value]
        elif node.kind == "ext":
            rlp_form = [_hex_prefix_encode(node.path, False), self._encode_node(node.child)]
        else:
            rlp_form = [
                self._encode_node(child) if child is not None else b""
                for child in node.children
            ]
            rlp_form.append(node.value if node.value is not None else b"")
        node.rlp_memo = rlp_form
        return rlp_form

    def _encode_node(self, node: Optional[_Node]):
        """Return the node reference: inline RLP if < 32 bytes, else its hash."""
        if node is None:
            return b""
        memo = node.ref_memo
        if memo is not None:
            return memo
        rlp_form = self._node_to_rlp(node)
        encoded = rlp_encode(rlp_form)
        reference = rlp_form if len(encoded) < 32 else keccak256(encoded)
        node.ref_memo = reference
        return reference


# -- ordered roots ----------------------------------------------------------------------
#
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

    Byte-identical to inserting every ``(rlp(index), value)`` into a
    :class:`MerklePatriciaTrie`, with the same keccak inputs, but built from
    the per-length shape (:func:`_ordered_shape`) instead of node objects.
    Values must be non-empty: in a trie an empty value is an absent key.
    """
    if not values:
        return EMPTY_ROOT
    reference = _reference(_ordered_shape(len(values)), values)
    # A hashed root node is its own hash; an embedded one is hashed now.
    return reference[1:] if len(reference) == 33 else keccak256(reference)


def verify_proof(root: bytes, key: bytes, value: bytes, proof: Sequence[bytes]) -> bool:
    """Verify a Merkle inclusion proof produced by :meth:`MerklePatriciaTrie.prove`.

    Walks the supplied nodes from the root, checking each node hashes (or
    embeds) correctly and that the path consumes the key's nibbles, ending at
    ``value``.  Raises :class:`ProofError` on malformed proofs and returns
    False when the proof is well-formed but does not bind ``key`` to
    ``value`` under ``root``.
    """
    if not proof:
        raise ProofError("empty proof")
    expected_reference: object = root
    nibbles = _to_nibbles(bytes(key))
    for encoded_node in proof:
        node = rlp_decode(encoded_node)
        if isinstance(expected_reference, bytes):
            if len(expected_reference) == 32 and keccak256(encoded_node) != expected_reference:
                raise ProofError("proof node hash does not match its reference")
        else:
            if node != expected_reference:
                raise ProofError("embedded proof node does not match its reference")
        if not isinstance(node, list):
            raise ProofError("malformed trie node")
        if len(node) == 2:
            path, is_leaf = _hex_prefix_decode(node[0])
            if is_leaf:
                return nibbles == path and node[1] == bytes(value)
            if nibbles[: len(path)] != path:
                return False
            nibbles = nibbles[len(path):]
            expected_reference = node[1]
        elif len(node) == 17:
            if not nibbles:
                return node[16] == bytes(value)
            expected_reference = node[nibbles[0]]
            nibbles = nibbles[1:]
            if expected_reference == b"":
                return False
        else:
            raise ProofError("trie nodes must have 2 or 17 items")
    return False
