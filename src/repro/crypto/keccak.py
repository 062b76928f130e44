"""Keccak-f[1600] sponge and the Keccak-256 hash used by Ethereum.

Ethereum uses the *original* Keccak submission padding (a single ``0x01``
domain byte) rather than the NIST SHA-3 padding (``0x06``), so the values
produced here match ``keccak256`` as computed by Geth/Solidity and therefore
match the "marks" that the Sereth contract and the Hash-Mark-Set algorithm
compute in the paper.

The permutation is generated on first use as one fully unrolled function:
all 24 rounds are emitted as straight-line code over 25 local variables, with
the theta/rho/pi/chi index arithmetic and rotation offsets folded into
constants.  Hashing *is* on the simulator's hot path (every transaction hash,
every trie node, every HMS mark), and the unrolled form runs several times
faster than a loop-and-list implementation while remaining dependency-free
and bit-exact.  A process whose digests all come from the native backend
never compiles it.

The module-level :func:`keccak256` memoises digests (validating peers re-hash
the same transactions on every block replay) in a
:func:`~repro.memo.bounded_memo` of :data:`KECCAK_MEMO_SIZE` entries, so a
process of any lifetime (sweep worker, ``repro serve``) holds at most that
many; nobody has to reset it.  The ``hash_cache`` probe reads its counters.
"""

from __future__ import annotations

import struct
from typing import List

from ..memo import bounded_memo

__all__ = ["keccak256", "keccak_f1600", "Keccak256"]

_ROUNDS = 24

# Round constants for the iota step.
_RC = [
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
    0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
    0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
    0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
    0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
]

# Rotation offsets for the rho step, indexed [x][y].
_ROTATION = [
    [0, 36, 3, 41, 18],
    [1, 44, 10, 45, 2],
    [62, 6, 43, 15, 61],
    [28, 55, 25, 21, 56],
    [27, 20, 39, 8, 14],
]

_MASK = (1 << 64) - 1


def _generate_permutation() -> "callable":
    """Emit the unrolled permutation as source and compile it.

    The state is a flat sequence of 25 lanes in ``state[x + 5 * y]`` order
    (the same layout the loop implementation used); the generated function
    takes that sequence and returns a new 25-element list.
    """

    def rotl(expr: str, shift: int) -> str:
        shift %= 64
        if shift == 0:
            return expr
        return f"(({expr} << {shift}) & M | ({expr} >> {64 - shift}))"

    lines = [
        "def _permute(state, M=_MASK):",
        "    (" + ", ".join(f"a{index}" for index in range(25)) + ") = state",
    ]
    for round_index in range(_ROUNDS):
        # theta: column parities, then mix each lane with its neighbours'.
        for x in range(5):
            column = " ^ ".join(f"a{x + 5 * y}" for y in range(5))
            lines.append(f"    c{x} = {column}")
        for x in range(5):
            lines.append(f"    d{x} = c{(x - 1) % 5} ^ {rotl(f'c{(x + 1) % 5}', 1)}")
        for x in range(5):
            for y in range(5):
                lines.append(f"    a{x + 5 * y} ^= d{x}")
        # rho + pi: rotate each lane into its permuted slot.
        for x in range(5):
            for y in range(5):
                target = y + 5 * ((2 * x + 3 * y) % 5)
                lines.append(f"    b{target} = {rotl(f'a{x + 5 * y}', _ROTATION[x][y])}")
        # chi: complement via xor-with-mask keeps every intermediate a
        # non-negative 64-bit int (faster than ~ on CPython).
        for x in range(5):
            for y in range(5):
                index = x + 5 * y
                left = ((x + 1) % 5) + 5 * y
                right = ((x + 2) % 5) + 5 * y
                lines.append(f"    a{index} = b{index} ^ ((b{left} ^ M) & b{right})")
        lines.append(f"    a0 ^= {_RC[round_index]}")
    lines.append("    return [" + ", ".join(f"a{index}" for index in range(25)) + "]")

    namespace = {"_MASK": _MASK}
    exec(compile("\n".join(lines), "<keccak-f1600-unrolled>", "exec"), namespace)
    return namespace["_permute"]


def _permute(state: List[int]) -> List[int]:
    """First call only: compile the unrolled permutation over this name."""
    global _permute
    _permute = _generate_permutation()
    return _permute(state)


def keccak_f1600(state: List[int]) -> List[int]:
    """Apply the Keccak-f[1600] permutation to a 25-lane state.

    The state is a flat list of 25 64-bit integers in lane order
    ``state[x + 5 * y]``.  A new list is returned; the input is not
    modified.  Lanes are reduced to 64 bits before permuting.
    """
    if len(state) != 25:
        raise ValueError(f"Keccak-f[1600] state must have 25 lanes, got {len(state)}")
    return _permute([lane & _MASK for lane in state])


_RATE_LANES = struct.Struct("<17Q")


class Keccak256:
    """Incremental Keccak-256 hasher (rate 1088 bits / 136 bytes)."""

    RATE_BYTES = 136
    DIGEST_SIZE = 32

    def __init__(self, data: bytes = b"") -> None:
        self._state = [0] * 25
        self._buffer = bytearray()
        self._finalized = False
        if data:
            self.update(data)

    def update(self, data: bytes) -> "Keccak256":
        """Absorb ``data`` into the sponge (whole rate-blocks at a time)."""
        if self._finalized:
            raise RuntimeError("cannot update a finalized Keccak256 hasher")
        buffer = self._buffer
        buffer.extend(data)
        pending = len(buffer)
        if pending < self.RATE_BYTES:
            return self
        state = self._state
        unpack_from = _RATE_LANES.unpack_from
        offset = 0
        whole = pending - (pending % self.RATE_BYTES)
        while offset < whole:
            for lane_index, lane in enumerate(unpack_from(buffer, offset)):
                state[lane_index] ^= lane
            state = _permute(state)
            offset += self.RATE_BYTES
        self._state = state
        del buffer[:whole]
        return self

    def digest(self) -> bytes:
        """Return the 32-byte digest. The hasher may keep being updated only
        if ``digest`` has not been called (Keccak padding is terminal)."""
        padded = bytearray(self._buffer)
        pad_length = self.RATE_BYTES - (len(padded) % self.RATE_BYTES)
        padding = bytearray(pad_length)
        # Original Keccak (pre-SHA3) multi-rate padding: 0x01 ... 0x80.
        padding[0] = 0x01
        padding[-1] |= 0x80
        padded.extend(padding)

        state = list(self._state)
        unpack_from = _RATE_LANES.unpack_from
        for offset in range(0, len(padded), self.RATE_BYTES):
            for lane_index, lane in enumerate(unpack_from(padded, offset)):
                state[lane_index] ^= lane
            state = _permute(state)

        return struct.pack("<4Q", state[0], state[1], state[2], state[3])

    def hexdigest(self) -> str:
        """Return the digest as a lowercase hex string (no 0x prefix)."""
        return self.digest().hex()


NATIVE_SELF_TEST = (
    (b"", "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"),
    (b"abc", "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"),
    (bytes(range(256)), "dc924469b334aed2a19fac7252e9961aea41f8d91996366029dbe0884229bf36"),
    (b"\x00" * 32, "290decd9548b62a8d60345a988386fc84ba6bc95484008f6362f93160ef3e563"),
    (b"x" * 135, "16570bdb055e663ea1cb57ac6f09194f4bc7b7070847971fc0b86710366dc34f"),
    (b"y" * 136, "299eb9c75467c19fbc1653d67b1f49ff3bb50fc9c1c9ce98c205e5ac6a05b9c8"),
    (b"z" * 137, "32fe0c7ccc0a26485fc1555eb4075da8b6c66da403bdf0fedb664a4a876d7a98"),
    (b"w" * 272, "29231205f1ce6ece6bcd3600f0ea2db18d85af0be12f744208ea9d2fbc85e33f"),
)
"""Padding-boundary vectors with the pure-Python sponge's digests pinned (a
tier-1 test holds them equal to ``Keccak256(vector).digest()``), so checking
the native backend does not compile and run the sponge it replaces."""


def _load_native_backend():
    """The compiled Keccak-256 one-shot, verified digest-for-digest against
    :data:`NATIVE_SELF_TEST`; ``None`` (pure Python everywhere) when no
    compiler is available, the build fails, or any vector disagrees — the
    backend may be faster, never different."""
    try:
        from .keccak_native import load_native_keccak256

        native = load_native_keccak256()
        if native is None:
            return None
        for vector, digest in NATIVE_SELF_TEST:
            if native(vector).hex() != digest:
                return None
    except Exception:
        return None
    return native


_NATIVE_KECCAK256 = None
_NATIVE_BACKEND_PROBED = False
"""The backend loads lazily on the first digest computation, not at import:
importing the package must never shell out to a compiler or touch the
filesystem (CLI ``--help``, test collection, sandboxes)."""


def _native_backend():
    global _NATIVE_KECCAK256, _NATIVE_BACKEND_PROBED
    if not _NATIVE_BACKEND_PROBED:
        _NATIVE_KECCAK256 = _load_native_backend()
        _NATIVE_BACKEND_PROBED = True
    return _NATIVE_KECCAK256


KECCAK_MEMO_SIZE = 4096
"""The knee of the measured hit curve (README "Performance"): replaying the
benchmark workloads' keccak inputs, 4,096 entries keep >= 98 % of the hits an
unbounded memo gets, at ~1 MB instead of ~12 MB.  ``tests/crypto/
test_keccak_traffic.py`` re-measures the curve and fails if this stops holding."""


@bounded_memo("keccak256", KECCAK_MEMO_SIZE)
def _keccak256_cached(data: bytes) -> bytes:
    native = _native_backend()
    if native is not None:
        return native(data)
    return Keccak256(data).digest()


def keccak256(*chunks: bytes) -> bytes:
    """Hash the concatenation of ``chunks`` with Keccak-256.

    Accepting multiple chunks mirrors Solidity's ``keccak256(a, b)`` usage in
    the Sereth contract (Listing 1), where a transaction's mark is
    ``keccak256(previous_mark, value)``.

    Results are memoised: the simulated network re-hashes the same
    transactions on every validating peer (block replay), and HMS recomputes
    the same marks on every view call, so caching pure hash results removes a
    large constant factor without changing any observable behaviour.
    """
    for chunk in chunks:
        if type(chunk) is not bytes:
            break
    else:
        # Every chunk is exactly ``bytes`` (the case on every hot path): the
        # loop above was the type check, and one chunk needs no join.
        return _keccak256_cached(chunks[0] if len(chunks) == 1 else b"".join(chunks))
    for chunk in chunks:
        if not isinstance(chunk, (bytes, bytearray)):
            raise TypeError(f"keccak256 expects bytes, got {type(chunk).__name__}")
    return _keccak256_cached(b"".join(bytes(chunk) for chunk in chunks))
