"""The RLP encoder's byte layout, pinned against a reference kept here.

``rlp_encode`` is a flat single-pass encoder with prefix tables and inline
fast paths; every hash and wire byte in the chain goes through it.  The
reference below is the yellow-paper definition written for clarity, not
speed — the two must agree on every encodable item.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.encoding.rlp import rlp_decode, rlp_encode, rlp_list, rlp_payload


def reference_rlp(item) -> bytes:
    if isinstance(item, (list, tuple)):
        payload, offset = b"".join(reference_rlp(child) for child in item), 0xC0
    else:
        if isinstance(item, int):
            item = item.to_bytes((item.bit_length() + 7) // 8, "big")
        payload, offset = item.encode("utf-8") if isinstance(item, str) else bytes(item), 0x80
        if len(payload) == 1 and payload[0] < 0x80:
            return payload
    if len(payload) < 56:
        return bytes([offset + len(payload)]) + payload
    size = len(payload).to_bytes((len(payload).bit_length() + 7) // 8, "big")
    return bytes([offset + 55 + len(size)]) + size + payload


def decoded_form(item):
    """What ``rlp_decode`` returns for ``item``: ints, strs and bytearrays as
    their byte strings, every sequence as a list."""
    if isinstance(item, (list, tuple)):
        return [decoded_form(child) for child in item]
    if isinstance(item, int):
        return item.to_bytes((item.bit_length() + 7) // 8, "big")
    return item.encode("utf-8") if isinstance(item, str) else bytes(item)


BOUNDARY_INTS = [0, 1, 0x7F, 0x80, 0xFF, 0x100, 2**64 - 1, 2**64, 2**448 - 1, 2**448]

leaves = st.one_of(
    st.binary(max_size=70),
    st.binary(min_size=50, max_size=60),
    st.binary(min_size=250, max_size=260),
    st.binary(max_size=70).map(bytearray),
    st.text(max_size=30),
    st.sampled_from(BOUNDARY_INTS),
    st.integers(min_value=0, max_value=2**72),
)
items = st.recursive(
    leaves,
    lambda children: st.one_of(st.lists(children, max_size=6), st.lists(children, max_size=6).map(tuple)),
    max_leaves=30,
)


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(items)
    @example([b"\x00" * 52, 0x80])  # list payload of exactly 55 bytes
    @example([b"\x00" * 52, 0x100])  # ... and 56
    @example([bytearray(b"\x7f"), "\x7f", 0x7F, [[], ()]])
    def test_encoding_matches_and_round_trips(self, item):
        encoded = rlp_encode(item)
        assert encoded == reference_rlp(item)
        assert rlp_decode(encoded) == decoded_form(item)

    @pytest.mark.parametrize("length", [0, 1, 54, 55, 56, 57, 255, 256, 257, 65_535, 65_536])
    def test_string_and_list_length_boundaries(self, length):
        string = b"\xab" * length
        assert rlp_encode(string) == reference_rlp(string)
        as_list = [b"\x01"] * length  # every element is its own encoding
        assert rlp_encode(as_list) == reference_rlp(as_list)
        assert rlp_decode(rlp_encode([string, as_list])) == [string, as_list]

    @pytest.mark.parametrize("value", BOUNDARY_INTS)
    def test_boundary_integers(self, value):
        assert rlp_encode(value) == reference_rlp(value)
        assert rlp_encode([value]) == reference_rlp([value])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(items, max_size=6))
    def test_payload_form_is_the_list_without_its_header(self, elements):
        assert rlp_list(rlp_payload(elements)) == rlp_encode(elements)
        assert rlp_payload(elements) == b"".join(rlp_encode(element) for element in elements)


class TestRejectedItems:
    @pytest.mark.parametrize("item", [True, False, [True], (1, [False])])
    def test_booleans_raise_type_error(self, item):
        with pytest.raises(TypeError):
            rlp_encode(item)

    @pytest.mark.parametrize("item", [-1, [-1], (0, [b"", -(2**70)])])
    def test_negative_integers_raise_value_error(self, item):
        with pytest.raises(ValueError):
            rlp_encode(item)

    @pytest.mark.parametrize("item", [None, 1.5, [object()], {"a": 1}])
    def test_other_types_raise_type_error(self, item):
        with pytest.raises(TypeError):
            rlp_encode(item)

    def test_subclasses_keep_their_base_behaviour(self):
        class Word(bytes):
            pass

        class Count(int):
            pass

        assert rlp_encode([Word(b"\x80"), Count(300)]) == reference_rlp([b"\x80", 300])
        with pytest.raises(ValueError):
            rlp_encode([Count(-3)])
