"""Hex string helpers used throughout the chain substrate and tooling."""

from __future__ import annotations

__all__ = [
    "to_hex",
    "from_hex",
    "to_bytes32",
    "bytes32_from_int",
    "int_from_bytes32",
    "bytes32_from_text",
    "pad_left",
    "pad_right",
]

WORD_SIZE = 32


def to_hex(data: bytes) -> str:
    """Render bytes as a 0x-prefixed lowercase hex string."""
    if not isinstance(data, (bytes, bytearray)):
        raise TypeError(f"to_hex expects bytes, got {type(data).__name__}")
    return "0x" + bytes(data).hex()


def from_hex(text: str) -> bytes:
    """Parse a hex string, with or without the 0x prefix."""
    if not isinstance(text, str):
        raise TypeError(f"from_hex expects str, got {type(text).__name__}")
    stripped = text[2:] if text.startswith(("0x", "0X")) else text
    if len(stripped) % 2 == 1:
        stripped = "0" + stripped
    return bytes.fromhex(stripped)


def pad_left(data: bytes, size: int = WORD_SIZE) -> bytes:
    """Left-pad bytes with zeros to ``size`` bytes (numeric ABI padding)."""
    if len(data) > size:
        raise ValueError(f"value of {len(data)} bytes does not fit in {size} bytes")
    return data.rjust(size, b"\x00")


def pad_right(data: bytes, size: int = WORD_SIZE) -> bytes:
    """Right-pad bytes with zeros to ``size`` bytes (bytesN ABI padding)."""
    if len(data) > size:
        raise ValueError(f"value of {len(data)} bytes does not fit in {size} bytes")
    return data.ljust(size, b"\x00")


def to_bytes32(value: object) -> bytes:
    """Coerce a value into a 32-byte word.

    Accepts bytes (left-padded), ints (big-endian), and short ASCII strings
    (right-padded, mirroring Solidity ``bytes32`` literals).
    """
    if type(value) is bytes and len(value) == WORD_SIZE:
        return value  # already a word: what the padding path returns too
    if isinstance(value, (bytes, bytearray)):
        return pad_left(bytes(value))
    if isinstance(value, bool):
        return bytes32_from_int(int(value))
    if isinstance(value, int):
        return bytes32_from_int(value)
    if isinstance(value, str):
        return bytes32_from_text(value)
    raise TypeError(f"cannot convert {type(value).__name__} to bytes32")


def bytes32_from_int(value: int) -> bytes:
    """Encode a non-negative integer as a 32-byte big-endian word."""
    if value < 0:
        raise ValueError("bytes32 integers must be non-negative")
    if value >= 1 << 256:
        raise ValueError("integer does not fit in 256 bits")
    return value.to_bytes(WORD_SIZE, "big")


def int_from_bytes32(word: bytes) -> int:
    """Decode a 32-byte word as a big-endian unsigned integer."""
    if len(word) != WORD_SIZE:
        raise ValueError(f"expected 32 bytes, got {len(word)}")
    return int.from_bytes(word, "big")


def bytes32_from_text(text: str) -> bytes:
    """Encode a short ASCII/UTF-8 string as a right-padded bytes32."""
    raw = text.encode("utf-8")
    if len(raw) > WORD_SIZE:
        raise ValueError("string does not fit in 32 bytes")
    return pad_right(raw)
