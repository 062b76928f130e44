"""Minimal Solidity ABI encoding for the types used by the paper's contracts.

The Sereth contract (Listing 1) takes ``bytes32[3]`` arguments — the FPV
(flag, previous_mark, value) tuple — so each transaction's ``input`` field
is a 4-byte selector followed by three contiguous 32-byte words.  HMS
(Algorithm 2) parses exactly that layout.  The encoder supports the static
types needed by the example contracts: ``bytes32``, fixed-size ``bytes32[N]``
arrays, ``uint256``, ``address``, and ``bool``, plus dynamic ``bytes`` for
completeness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence, Tuple

from ..crypto.addresses import ADDRESS_LENGTH, Address, function_selector, is_address
from ..memo import bounded_memo
from .hexutil import WORD_SIZE, bytes32_from_int, int_from_bytes32, pad_left, to_bytes32

__all__ = [
    "ABIError",
    "encode_word",
    "decode_word",
    "encode_arguments",
    "decode_arguments",
    "encode_call",
    "decode_call",
    "selector_of",
    "FunctionABI",
]


class ABIError(ValueError):
    """Raised when ABI encoding or decoding fails."""


def selector_of(signature: str) -> bytes:
    """Return the 4-byte selector for ``signature`` (e.g. ``"set(bytes32[3])"``)."""
    return function_selector(signature)


def encode_word(abi_type: str, value: object) -> bytes:
    """Encode a single static value as one or more 32-byte words."""
    if abi_type == "bytes32":
        word = to_bytes32(value)
        if isinstance(value, (bytes, bytearray)) and len(value) != WORD_SIZE:
            # bytes32 literals shorter than 32 bytes are right-padded in Solidity.
            word = bytes(value).ljust(WORD_SIZE, b"\x00")
        return word
    if abi_type in ("uint256", "uint"):
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ABIError(f"uint256 requires a non-negative int, got {value!r}")
        return bytes32_from_int(value)
    if abi_type == "address":
        if not is_address(value):
            raise ABIError("address requires 20 bytes")
        return pad_left(bytes(value))
    if abi_type == "bool":
        return bytes32_from_int(1 if value else 0)
    raise ABIError(f"unsupported ABI type: {abi_type}")


def decode_word(abi_type: str, word: bytes) -> object:
    """Decode a single 32-byte word into a Python value."""
    if len(word) != WORD_SIZE:
        raise ABIError(f"expected a 32-byte word, got {len(word)} bytes")
    if abi_type == "bytes32":
        return word
    if abi_type in ("uint256", "uint"):
        return int_from_bytes32(word)
    if abi_type == "address":
        return word[-ADDRESS_LENGTH:]
    if abi_type == "bool":
        return int_from_bytes32(word) != 0
    raise ABIError(f"unsupported ABI type: {abi_type}")


@bounded_memo("abi_array_type", 256)
def _parse_array_type(abi_type: str) -> Tuple[str, int]:
    """Split ``"bytes32[3]"`` into (element type, length); memoised per type
    string (a contract has a handful, parsed on every call otherwise)."""
    open_bracket = abi_type.index("[")
    element_type = abi_type[:open_bracket]
    length_text = abi_type[open_bracket + 1 : -1]
    if not length_text.isdigit():
        raise ABIError(f"only fixed-size arrays are supported: {abi_type}")
    return element_type, int(length_text)


def encode_arguments(abi_types: Sequence[str], values: Sequence[object]) -> bytes:
    """Encode a flat argument list according to ``abi_types``."""
    if len(abi_types) != len(values):
        raise ABIError(f"expected {len(abi_types)} values, got {len(values)}")
    words: List[bytes] = []
    for abi_type, value in zip(abi_types, values):
        if abi_type.endswith("]"):
            element_type, length = _parse_array_type(abi_type)
            if not isinstance(value, (list, tuple)) or len(value) != length:
                raise ABIError(f"{abi_type} requires a sequence of {length} elements")
            for element in value:
                words.append(encode_word(element_type, element))
        else:
            words.append(encode_word(abi_type, value))
    return b"".join(words)


def decode_arguments(abi_types: Sequence[str], data: bytes) -> List[object]:
    """Decode calldata (without selector) according to ``abi_types``."""
    values: List[object] = []
    cursor = 0
    for abi_type in abi_types:
        if abi_type.endswith("]"):
            element_type, length = _parse_array_type(abi_type)
            elements = []
            for _ in range(length):
                word = data[cursor : cursor + WORD_SIZE]
                if len(word) != WORD_SIZE:
                    raise ABIError("calldata truncated")
                elements.append(decode_word(element_type, word))
                cursor += WORD_SIZE
            values.append(elements)
        else:
            word = data[cursor : cursor + WORD_SIZE]
            if len(word) != WORD_SIZE:
                raise ABIError("calldata truncated")
            values.append(decode_word(abi_type, word))
            cursor += WORD_SIZE
    if cursor != len(data):
        raise ABIError(f"calldata has {len(data) - cursor} unexpected trailing bytes")
    return values


@dataclass(frozen=True)
class FunctionABI:
    """Describes one contract function for encoding/decoding calls."""

    name: str
    argument_types: Tuple[str, ...]
    return_types: Tuple[str, ...] = ()
    mutates_state: bool = True

    @cached_property
    def signature(self) -> str:
        return f"{self.name}({','.join(self.argument_types)})"

    @cached_property
    def selector(self) -> bytes:
        return selector_of(self.signature)

    def encode_call(self, *values: object) -> bytes:
        return self.selector + encode_arguments(self.argument_types, list(values))

    def decode_arguments(self, calldata: bytes) -> List[object]:
        if calldata[:4] != self.selector:
            raise ABIError(f"calldata selector does not match {self.signature}")
        return decode_arguments(self.argument_types, calldata[4:])

    def encode_result(self, *values: object) -> bytes:
        return encode_arguments(self.return_types, list(values))

    def decode_result(self, data: bytes) -> List[object]:
        return decode_arguments(self.return_types, data)


def encode_call(signature: str, abi_types: Sequence[str], values: Sequence[object]) -> bytes:
    """Encode a full calldata blob: selector + arguments."""
    return selector_of(signature) + encode_arguments(abi_types, values)


def decode_call(abi_types: Sequence[str], calldata: bytes) -> Tuple[bytes, List[object]]:
    """Split calldata into (selector, decoded arguments)."""
    if len(calldata) < 4:
        raise ABIError("calldata shorter than a selector")
    return calldata[:4], decode_arguments(abi_types, calldata[4:])
