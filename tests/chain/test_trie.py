"""Tests for ordered list roots, held to a from-scratch trie root."""

import hashlib
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.chain.trie import EMPTY_ROOT, ordered_trie_root
from repro.crypto import keccak as keccak_module
from repro.crypto.keccak import keccak256
from repro.encoding.rlp import rlp_encode
from repro.memo import clear_memos, memo_stats


def _nibbles(key):
    return [nibble for byte in key for nibble in (byte >> 4, byte & 0x0F)]


def _hex_prefix(nibbles, leaf):
    """HP(x, t): a flag nibble (2 for a leaf, +1 for odd length), padded to bytes."""
    flag = 2 * leaf + len(nibbles) % 2
    padded = [flag] + ([] if flag % 2 else [0]) + list(nibbles)
    return bytes(padded[index] << 4 | padded[index + 1] for index in range(0, len(padded), 2))


def _reference(node):
    """n(J, i): a node's structure if its RLP is shorter than 32 bytes, else its hash."""
    encoded = rlp_encode(node)
    return node if len(encoded) < 32 else keccak256(encoded)


def _node(pairs, depth):
    """c(J, i): the node over sorted ``(nibbles, value)`` pairs that agree on
    their first ``depth`` nibbles."""
    if len(pairs) == 1:
        path, value = pairs[0]
        return [_hex_prefix(path[depth:], True), value]
    shared = depth
    shortest = min(len(path) for path, _ in pairs)
    while shared < shortest and len({path[shared] for path, _ in pairs}) == 1:
        shared += 1
    if shared > depth:
        return [_hex_prefix(pairs[0][0][depth:shared], False), _reference(_node(pairs, shared))]
    branch = []
    for nibble in range(16):
        group = [pair for pair in pairs if len(pair[0]) > depth and pair[0][depth] == nibble]
        branch.append(_reference(_node(group, depth + 1)) if group else b"")
    here = [value for path, value in pairs if len(path) == depth]
    return branch + [here[0] if here else b""]


def trie_root(items):
    """TRIE(J) of the yellow paper, appendix D, over ``items`` (a plain
    mapping of non-empty values): the from-scratch oracle
    ``ordered_trie_root`` is held to.  It shares no code with the
    per-length shape."""
    if not items:
        return keccak256(rlp_encode(b""))
    return keccak256(rlp_encode(_node(sorted((_nibbles(key), value) for key, value in items.items()), 0)))


def indexed(values):
    return {rlp_encode(index): value for index, value in enumerate(values)}


# One-byte values make embedded leaves, 32+ bytes hashed ones; the lengths
# cross the RLP key boundaries at 127/128 (one-byte -> 0x81-prefixed keys)
# and 255/256 (0x81 -> 0x82).
ORDERED_VALUE = st.one_of(
    st.binary(min_size=1, max_size=1),
    st.binary(min_size=32, max_size=40),
    st.binary(min_size=1, max_size=40),
)
ORDERED_LISTS = st.integers(min_value=0, max_value=300).flatmap(
    lambda count: st.lists(ORDERED_VALUE, min_size=count, max_size=count)
)
BOUNDARY_LENGTHS = (1, 2, 16, 17, 127, 128, 129, 255, 256, 257, 300)

INCREMENTAL_TRIE_DIGEST = "1a0e807423078eb2e30634deb0e362355e9cd3e45673225d04c6aaedb274671e"


class TestBasicOperations:
    """The oracle itself: the empty root, Ethereum's published trie vectors,
    and the digest of roots the deleted incremental trie computed."""

    def test_empty_root_is_hash_of_empty_string(self):
        assert trie_root({}) == keccak256(rlp_encode(b"")) == EMPTY_ROOT

    def test_keys_that_share_prefixes(self):
        # ethereum/tests TrieTests/trieanyorder.json: "puppy", "dogs", "foo".
        assert trie_root(
            {b"do": b"verb", b"dog": b"puppy", b"doge": b"coin", b"horse": b"stallion"}
        ).hex() == "5991bb8c6514148a29db676a14ac506cd2cd5775ace63c30a4fe457715e9ac84"
        assert trie_root(
            {b"doe": b"reindeer", b"dog": b"puppy", b"dogglesworth": b"cat"}
        ).hex() == "8aad789dff2f538bca5d8ea56e8abe10f4c7ba3a5dea95fea4cd6e7c3a1168d3"
        assert trie_root({b"foo": b"bar", b"food": b"bass"}).hex() == (
            "17beaa1648bafa633cda809c90c04af50fc8aed3cb40d16efbddee6fdf63c4c3"
        )

    def test_oracle_reproduces_the_incremental_trie_digest(self):
        """One sha256 over the roots the incremental ``MerklePatriciaTrie``
        (deleted once this oracle replaced it) gave for the boundary-length
        lists and two arbitrary-key sets, pinned before the deletion."""
        sets = [
            indexed([bytes([index % 251 + 1]) * size for index in range(count)])
            for count in BOUNDARY_LENGTHS
            for size in (1, 31, 32)
        ]
        sets.append(
            {b"do": b"verb", b"dog": b"puppy", b"doge": b"coin", b"horse": b"stallion", b"dodge": b"car"}
        )
        sets.append({b"\x12": b"short", b"\x12\x34": b"long"})
        digest = hashlib.sha256(b"".join(trie_root(items) for items in sets)).hexdigest()
        assert digest == INCREMENTAL_TRIE_DIGEST


class TestRootProperties:
    def test_root_is_insertion_order_independent(self):
        items = {b"do": b"verb", b"dog": b"puppy", b"doge": b"coin", b"horse": b"stallion"}
        forward = {key: items[key] for key in sorted(items)}
        backward = {key: items[key] for key in sorted(items, reverse=True)}
        assert trie_root(forward) == trie_root(backward)

    def test_root_changes_with_content(self):
        assert trie_root({b"a": b"1"}) != trie_root({b"a": b"2"})
        assert trie_root({b"a": b"1"}) != trie_root({b"b": b"1"})

    def test_root_is_32_bytes(self):
        assert len(trie_root({b"key": b"value"})) == 32

    def test_ordered_trie_root_is_order_sensitive(self):
        assert ordered_trie_root([b"a", b"b"]) != ordered_trie_root([b"b", b"a"])

    def test_ordered_trie_root_empty(self):
        assert ordered_trie_root([]) == EMPTY_ROOT

    @settings(max_examples=40, deadline=None)
    @given(ORDERED_LISTS)
    @example([b"\x01"] * 128)
    @example([b"\x01"] * 256)
    @example([bytes([index % 256]) * 32 for index in range(257)])
    def test_property_ordered_root_equals_from_scratch_trie(self, values):
        """Asked twice, ``ordered_trie_root`` gives the root of a fresh trie
        keyed by RLP-encoded index, for bytes, bytearray and tuple inputs: its
        per-length shape memo holds no values, so a repeat cannot go stale."""
        expected = trie_root(indexed(values))
        assert ordered_trie_root(values) == expected
        assert ordered_trie_root(tuple(bytearray(value) for value in values)) == expected

    @pytest.mark.parametrize("count", BOUNDARY_LENGTHS)
    @pytest.mark.parametrize("size", [1, 31, 32])
    def test_ordered_root_at_key_boundaries(self, count, size):
        values = [bytes([index % 251 + 1]) * size for index in range(count)]
        assert ordered_trie_root(values) == trie_root(indexed(values))

    @pytest.mark.parametrize("count", BOUNDARY_LENGTHS)
    def test_ordered_root_hashes_what_the_trie_hashes(self, count, monkeypatch):
        """The same keccak inputs as the from-scratch trie, so
        ``crypto.keccak_calls`` and the memo's hit ratio stay as they were."""
        values = [bytes([index % 256]) * (1 if index % 3 else 40) for index in range(count)]
        seen = []
        keccak256(b"")  # installs the memo the seam holds from then on
        memo = keccak_module._digest

        def recording(data):
            seen.append(data)
            return memo(data)

        monkeypatch.setattr(keccak_module, "_digest", recording)
        ordered_trie_root(values)
        ours = Counter(seen)
        seen.clear()
        trie_root(indexed(values))
        assert ours and ours == Counter(seen), "both roots must hash through the seam"

    def test_ordered_root_refuses_an_empty_value(self):
        # In a trie an empty value is an absent key; a list has no holes.
        with pytest.raises(ValueError):
            ordered_trie_root([b"a", b"", b"c"])

    def test_shape_memo_is_registered_and_cleared(self):
        ordered_trie_root([b"x" * 32] * 5)
        assert memo_stats()["ordered_trie_shape"]["size"] >= 1
        clear_memos()
        assert memo_stats()["ordered_trie_shape"]["size"] == 0
        assert ordered_trie_root([b"x" * 32] * 5) == trie_root(indexed([b"x" * 32] * 5))
