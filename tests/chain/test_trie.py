"""Tests for the Merkle Patricia trie, its proofs, and ordered list roots."""

from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.chain import trie as trie_module
from repro.chain.trie import (
    EMPTY_ROOT,
    MerklePatriciaTrie,
    ProofError,
    ordered_trie_root,
    verify_proof,
)
from repro.crypto import keccak as keccak_module
from repro.crypto.keccak import keccak256
from repro.encoding.rlp import rlp_encode
from repro.memo import clear_memos, memo_stats


def trie_root(items):
    """Root of a trie holding ``items`` (a plain mapping): the from-scratch
    oracle ``ordered_trie_root`` is held to."""
    trie = MerklePatriciaTrie()
    for key, value in items.items():
        trie.put(key, value)
    return trie.root()


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


class TestBasicOperations:
    def test_empty_root_is_hash_of_empty_string(self):
        assert MerklePatriciaTrie().root() == keccak256(rlp_encode(b""))
        assert MerklePatriciaTrie().root() == EMPTY_ROOT

    def test_put_and_get(self):
        trie = MerklePatriciaTrie()
        trie.put(b"dog", b"puppy")
        assert trie.get(b"dog") == b"puppy"
        assert trie.get(b"cat") is None
        assert b"dog" in trie and len(trie) == 1

    def test_update_overwrites(self):
        trie = MerklePatriciaTrie()
        trie.put(b"dog", b"puppy")
        trie.put(b"dog", b"adult")
        assert trie.get(b"dog") == b"adult"
        assert len(trie) == 1

    def test_empty_value_deletes(self):
        trie = MerklePatriciaTrie()
        trie.put(b"dog", b"puppy")
        trie.put(b"dog", b"")
        assert trie.get(b"dog") is None
        assert trie.root() == EMPTY_ROOT

    def test_delete_restores_previous_root(self):
        trie = MerklePatriciaTrie()
        trie.put(b"dog", b"puppy")
        root_one = trie.root()
        trie.put(b"horse", b"stallion")
        trie.delete(b"horse")
        assert trie.root() == root_one

    def test_delete_missing_key_is_noop(self):
        trie = MerklePatriciaTrie()
        trie.put(b"dog", b"puppy")
        root = trie.root()
        trie.delete(b"unicorn")
        assert trie.root() == root

    def test_keys_that_share_prefixes(self):
        trie = MerklePatriciaTrie()
        trie.put(b"do", b"verb")
        trie.put(b"dog", b"puppy")
        trie.put(b"doge", b"coin")
        trie.put(b"horse", b"stallion")
        assert trie.get(b"do") == b"verb"
        assert trie.get(b"dog") == b"puppy"
        assert trie.get(b"doge") == b"coin"
        assert trie.get(b"horse") == b"stallion"


class TestRootProperties:
    def test_root_is_insertion_order_independent(self):
        items = {b"do": b"verb", b"dog": b"puppy", b"doge": b"coin", b"horse": b"stallion"}
        forward = MerklePatriciaTrie()
        for key in sorted(items):
            forward.put(key, items[key])
        backward = MerklePatriciaTrie()
        for key in sorted(items, reverse=True):
            backward.put(key, items[key])
        assert forward.root() == backward.root()

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

    def test_ordered_root_builds_no_trie_nodes(self, monkeypatch):
        def refuse(self):
            raise AssertionError("ordered_trie_root built a trie node")

        monkeypatch.setattr(trie_module._Node, "__init__", refuse)
        for count in BOUNDARY_LENGTHS:
            ordered_trie_root([b"v%d" % index * 12 for index in range(count)])

    @pytest.mark.parametrize("count", BOUNDARY_LENGTHS)
    def test_ordered_root_hashes_what_the_trie_hashes(self, count, monkeypatch):
        """The same keccak inputs as the from-scratch trie, so
        ``crypto.keccak_calls`` and the memo's hit ratio stay as they were."""
        values = [bytes([index % 256]) * (1 if index % 3 else 40) for index in range(count)]
        seen = []
        cached = keccak_module._keccak256_cached

        def recording(data):
            seen.append(data)
            return cached(data)

        monkeypatch.setattr(keccak_module, "_keccak256_cached", recording)
        ordered_trie_root(values)
        ours = Counter(seen)
        seen.clear()
        trie_root(indexed(values))
        assert ours == Counter(seen)

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

    @settings(max_examples=40, deadline=None)
    @given(
        st.dictionaries(
            st.binary(min_size=1, max_size=8), st.binary(min_size=1, max_size=16), max_size=20
        ),
        st.randoms(use_true_random=False),
    )
    def test_property_root_is_permutation_invariant_and_values_retrievable(self, items, rng):
        keys = list(items)
        rng.shuffle(keys)
        trie = MerklePatriciaTrie()
        for key in keys:
            trie.put(key, items[key])
        assert trie.root() == trie_root(items)
        for key, value in items.items():
            assert trie.get(key) == value


class TestProofs:
    def build(self):
        trie = MerklePatriciaTrie()
        items = {
            b"do": b"verb",
            b"dog": b"puppy",
            b"doge": b"coin",
            b"horse": b"stallion",
            b"dodge": b"car",
        }
        for key, value in items.items():
            trie.put(key, value)
        return trie, items

    def test_valid_proofs_verify(self):
        trie, items = self.build()
        root = trie.root()
        for key, value in items.items():
            proof = trie.prove(key)
            assert verify_proof(root, key, value, proof)

    def test_wrong_value_rejected(self):
        trie, _ = self.build()
        proof = trie.prove(b"dog")
        assert not verify_proof(trie.root(), b"dog", b"kitten", proof)

    def test_wrong_root_rejected(self):
        trie, _ = self.build()
        proof = trie.prove(b"dog")
        with pytest.raises(ProofError):
            verify_proof(b"\x00" * 32, b"dog", b"puppy", proof)

    def test_empty_proof_rejected(self):
        with pytest.raises(ProofError):
            verify_proof(b"\x00" * 32, b"dog", b"puppy", [])

    def test_tampered_proof_rejected(self):
        trie, _ = self.build()
        proof = trie.prove(b"dog")
        tampered = list(proof)
        tampered[-1] = rlp_encode([b"\x20\x64\x6f\x67", b"kitten"])
        with pytest.raises(ProofError):
            verify_proof(trie.root(), b"dog", b"puppy", tampered)

    def test_single_entry_proof(self):
        trie = MerklePatriciaTrie()
        trie.put(b"only", b"entry")
        assert verify_proof(trie.root(), b"only", b"entry", trie.prove(b"only"))


class TestStructuralDelete:
    """The incremental trie: structural delete + memoised encodings."""

    def rebuild_root(self, items):
        rebuilt = MerklePatriciaTrie()
        for key, value in items.items():
            rebuilt.put(key, value)
        return rebuilt.root()

    def test_interleaved_put_delete_proofs_round_trip(self):
        trie = MerklePatriciaTrie()
        live = {}
        script = [
            ("put", b"do", b"verb"),
            ("put", b"dog", b"puppy"),
            ("put", b"doge", b"coin"),
            ("del", b"dog", None),
            ("put", b"horse", b"stallion"),
            ("put", b"dodge", b"car"),
            ("del", b"do", None),
            ("put", b"dog", b"again"),
            ("del", b"doge", None),
            ("put", b"dot", b"punct"),
            ("del", b"dodge", None),
        ]
        for action, key, value in script:
            if action == "put":
                trie.put(key, value)
                live[key] = value
            else:
                trie.delete(key)
                live.pop(key, None)
            root = trie.root()
            assert root == self.rebuild_root(live)
            for live_key, live_value in live.items():
                assert verify_proof(root, live_key, live_value, trie.prove(live_key))

    def test_branch_collapses_to_leaf_after_delete(self):
        trie = MerklePatriciaTrie()
        trie.put(b"\x12\x34", b"a")
        single_root = trie.root()
        trie.put(b"\x12\x35", b"b")  # splits into a branch
        trie.delete(b"\x12\x35")  # must collapse back
        assert trie.root() == single_root

    def test_branch_value_delete_collapses(self):
        trie = MerklePatriciaTrie()
        trie.put(b"\x12", b"short")  # becomes a branch value under the other key's path
        trie.put(b"\x12\x34", b"long")
        trie.delete(b"\x12")
        assert trie.root() == self.rebuild_root({b"\x12\x34": b"long"})
        trie.put(b"\x12", b"short")
        trie.delete(b"\x12\x34")
        assert trie.root() == self.rebuild_root({b"\x12": b"short"})

    def test_delete_everything_returns_to_empty_root(self):
        trie = MerklePatriciaTrie()
        keys = [bytes([index, index * 3 % 256]) for index in range(30)]
        for index, key in enumerate(keys):
            trie.put(key, b"v%d" % index)
        for key in keys:
            trie.delete(key)
        assert trie.root() == EMPTY_ROOT
        assert len(trie) == 0

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["put", "delete"]),
                st.binary(min_size=1, max_size=6),
                st.binary(min_size=0, max_size=12),
            ),
            max_size=60,
        )
    )
    def test_property_incremental_root_equals_rebuild(self, operations):
        """The tentpole invariant: memoised incremental roots never diverge
        from a from-scratch rebuild, across arbitrary put/delete interleavings
        (an empty put value is a delete)."""
        trie = MerklePatriciaTrie()
        model = {}
        for action, key, value in operations:
            if action == "put":
                trie.put(key, value)
                if value:
                    model[key] = value
                else:
                    model.pop(key, None)
            else:
                trie.delete(key)
                model.pop(key, None)
        assert trie.root() == self.rebuild_root(model)
        assert dict(trie.items()) == model

    def test_root_is_stable_across_repeated_calls(self):
        trie = MerklePatriciaTrie()
        for index in range(10):
            trie.put(b"key-%d" % index, b"value-%d" % index)
        assert trie.root() == trie.root()
        trie.delete(b"key-3")
        first = trie.root()
        assert trie.root() == first
