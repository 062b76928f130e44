"""Recursive Length Prefix (RLP) encoding and decoding.

RLP is Ethereum's canonical serialization for transactions, block headers,
and account records.  We use it for transaction hashing, block hashing, and
contract-address derivation so that on-disk/object identities in the
simulated chain follow the same rules as the real protocol.

Supported item types: ``bytes`` (and ``bytearray``), non-negative ``int``
(encoded big-endian, minimal length, zero as empty string), ``str``
(UTF-8), and (nested) lists/tuples of items.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

__all__ = ["rlp_encode", "rlp_payload", "rlp_list", "rlp_decode", "RLPDecodingError"]

RLPItem = Union[bytes, bytearray, int, str, Sequence["RLPItem"]]


class RLPDecodingError(ValueError):
    """Raised when an RLP byte string is malformed."""


def _long_prefix(length: int, offset: int) -> bytes:
    """Prefix for a payload of 56 bytes or more: ``offset`` is 0xB7 for a
    string and 0xF7 for a list, followed by the big-endian length."""
    length_bytes = length.to_bytes((length.bit_length() + 7) // 8, "big")
    return bytes((offset + len(length_bytes),)) + length_bytes


# The prefix of every payload shorter than 256 bytes (one byte below 56, a
# marker plus a one-byte length from there on) and every integer that is its
# own encoding, built once: the hot loop below only indexes.
_STRING_PREFIX = [bytes((0x80 + length,)) for length in range(56)] + [
    _long_prefix(length, 0xB7) for length in range(56, 256)
]
_LIST_PREFIX = [bytes((0xC0 + length,)) for length in range(56)] + [
    _long_prefix(length, 0xF7) for length in range(56, 256)
]
_SMALL_INT = [b"\x80"] + [bytes((value,)) for value in range(1, 0x80)]


def _to_binary(item: RLPItem) -> bytes:
    if isinstance(item, (bytes, bytearray)):
        return bytes(item)
    if isinstance(item, bool):
        raise TypeError("booleans are not RLP-encodable; encode an int explicitly")
    if isinstance(item, int):
        if item < 0:
            raise ValueError("RLP integers must be non-negative")
        if item == 0:
            return b""
        return item.to_bytes((item.bit_length() + 7) // 8, "big")
    if isinstance(item, str):
        return item.encode("utf-8")
    raise TypeError(f"cannot RLP-encode object of type {type(item).__name__}")


def _encode_string(raw: bytes) -> bytes:
    length = len(raw)
    if length < 256:
        if length == 1 and raw[0] < 0x80:
            return raw
        return _STRING_PREFIX[length] + raw
    return _long_prefix(length, 0xB7) + raw


def rlp_payload(items: Sequence[RLPItem]) -> bytes:
    """The concatenated encodings of ``items`` *without* the list header, so
    ``rlp_encode(items) == rlp_list(rlp_payload(items))``.

    An immutable object encodes its fields once with this and derives every
    list it appears in (signing payload, hash preimage, wire form) by
    appending to the payload and wrapping it with :func:`rlp_list`.

    One flat pass: exact ``bytes`` and ``int`` elements — all but a few
    percent of what the chain encodes — are handled inline; nested
    sequences and every other type go through :func:`rlp_encode`.
    """
    parts = []
    append = parts.append
    for item in items:
        kind = type(item)
        if kind is bytes:
            length = len(item)
            if length >= 256:
                append(_long_prefix(length, 0xB7))
            elif length != 1 or item[0] >= 0x80:
                append(_STRING_PREFIX[length])
            append(item)
        elif kind is int:
            if item < 0x80:
                if item < 0:
                    raise ValueError("RLP integers must be non-negative")
                append(_SMALL_INT[item])
            else:
                raw = item.to_bytes((item.bit_length() + 7) // 8, "big")
                append(_encode_string(raw))
        else:
            append(rlp_encode(item))
    return b"".join(parts)


def rlp_list(payload: bytes) -> bytes:
    """Wrap an already encoded list payload in its list header."""
    length = len(payload)
    if length < 256:
        return _LIST_PREFIX[length] + payload
    return _long_prefix(length, 0xF7) + payload


def rlp_encode(item: RLPItem) -> bytes:
    """Encode an item (bytes, int, str, or nested sequence) as RLP."""
    if type(item) is bytes:
        return _encode_string(item)
    if isinstance(item, (list, tuple)):
        return rlp_list(rlp_payload(item))
    return _encode_string(_to_binary(item))


def _decode_item(data: bytes, offset: int) -> Tuple[Union[bytes, list], int]:
    if offset >= len(data):
        raise RLPDecodingError("unexpected end of input")
    prefix = data[offset]
    if prefix < 0x80:
        return bytes([prefix]), offset + 1
    if prefix < 0xB8:
        length = prefix - 0x80
        start = offset + 1
        end = start + length
        if end > len(data):
            raise RLPDecodingError("string extends past end of input")
        payload = data[start:end]
        if length == 1 and payload[0] < 0x80:
            raise RLPDecodingError("non-canonical single byte encoding")
        return payload, end
    if prefix < 0xC0:
        length_of_length = prefix - 0xB7
        start = offset + 1
        length = int.from_bytes(data[start : start + length_of_length], "big")
        if length < 56:
            raise RLPDecodingError("non-canonical long string length")
        payload_start = start + length_of_length
        end = payload_start + length
        if end > len(data):
            raise RLPDecodingError("string extends past end of input")
        return data[payload_start:end], end
    if prefix < 0xF8:
        length = prefix - 0xC0
        return _decode_list(data, offset + 1, length)
    length_of_length = prefix - 0xF7
    start = offset + 1
    length = int.from_bytes(data[start : start + length_of_length], "big")
    if length < 56:
        raise RLPDecodingError("non-canonical long list length")
    return _decode_list(data, start + length_of_length, length)


def _decode_list(data: bytes, start: int, length: int) -> Tuple[list, int]:
    end = start + length
    if end > len(data):
        raise RLPDecodingError("list extends past end of input")
    items: List[Union[bytes, list]] = []
    cursor = start
    while cursor < end:
        item, cursor = _decode_item(data, cursor)
        if cursor > end:
            raise RLPDecodingError("list item extends past list boundary")
        items.append(item)
    return items, end


def rlp_decode(data: bytes) -> Union[bytes, list]:
    """Decode an RLP byte string into nested bytes/lists.

    Integers are returned as their big-endian byte representation (the
    caller knows the schema); trailing bytes raise ``RLPDecodingError``.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise TypeError("rlp_decode expects bytes")
    if len(data) == 0:
        raise RLPDecodingError("cannot decode empty input")
    item, end = _decode_item(bytes(data), 0)
    if end != len(data):
        raise RLPDecodingError("trailing bytes after RLP item")
    return item
