"""Tests for the Keccak-256 implementation against known Ethereum vectors."""

import pytest

from repro.crypto.keccak import Keccak256, keccak256, keccak_f1600


KNOWN_VECTORS = {
    b"": "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470",
    b"abc": "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45",
    b"testing": "5f16f4c7f149ac4f9510d9cf8cf384038ad348b3bcdc01915f95de12df9d1b02",
    b"hello": "1c8aff950685c2ed4bc3174f3472287b56d9517b9c948127319a09a7a36deac8",
    b"The quick brown fox jumps over the lazy dog":
        "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15",
}


class TestKeccak256Vectors:
    @pytest.mark.parametrize("message,expected", sorted(KNOWN_VECTORS.items()))
    def test_known_vectors(self, message, expected):
        assert keccak256(message).hex() == expected

    def test_uses_original_keccak_padding_not_sha3(self):
        # NIST SHA3-256("") is a7ffc6f8...; Ethereum's keccak256("") differs.
        assert keccak256(b"").hex() != "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a"

    def test_multi_chunk_equals_concatenation(self):
        assert keccak256(b"foo", b"bar") == keccak256(b"foobar")

    def test_digest_length_is_32_bytes(self):
        assert len(keccak256(b"x")) == 32

    def test_rejects_non_bytes(self):
        with pytest.raises(TypeError):
            keccak256("not-bytes")  # type: ignore[arg-type]

    def test_long_input_spanning_multiple_blocks(self):
        message = b"a" * 1000
        # Compare incremental hashing against one-shot hashing.
        hasher = Keccak256()
        for offset in range(0, len(message), 7):
            hasher.update(message[offset : offset + 7])
        assert hasher.digest() == keccak256(message)

    def test_exact_rate_boundary(self):
        message = b"b" * Keccak256.RATE_BYTES
        assert keccak256(message) == Keccak256(message).digest()

    def test_one_below_and_above_rate_boundary(self):
        for size in (Keccak256.RATE_BYTES - 1, Keccak256.RATE_BYTES + 1):
            message = b"c" * size
            assert keccak256(message) == Keccak256(message).digest()


class TestKeccakHasher:
    def test_update_returns_self_for_chaining(self):
        hasher = Keccak256()
        assert hasher.update(b"ab") is hasher

    def test_hexdigest_matches_digest(self):
        hasher = Keccak256(b"abc")
        assert hasher.hexdigest() == hasher.digest().hex()

    def test_digest_is_repeatable(self):
        hasher = Keccak256(b"abc")
        assert hasher.digest() == hasher.digest()

    def test_empty_update_is_noop(self):
        hasher = Keccak256()
        hasher.update(b"")
        assert hasher.digest() == keccak256(b"")


class TestPermutation:
    def test_requires_25_lanes(self):
        with pytest.raises(ValueError):
            keccak_f1600([0] * 24)

    def test_zero_state_permutes_to_known_nonzero_state(self):
        result = keccak_f1600([0] * 25)
        assert result != [0] * 25
        assert all(0 <= lane < 2**64 for lane in result)

    def test_permutation_is_deterministic(self):
        state = list(range(25))
        assert keccak_f1600(state) == keccak_f1600(state)

    def test_input_not_modified(self):
        state = list(range(25))
        keccak_f1600(state)
        assert state == list(range(25))


class TestHashCacheLifecycle:
    def test_clear_and_stats(self):
        from repro.api import reset_process_caches
        from repro.crypto.keccak import KECCAK_MEMO_SIZE, keccak256
        from repro.obs import snapshot

        def hash_cache_stats():
            return snapshot()["hash_cache"]

        reset_process_caches()
        baseline = hash_cache_stats()
        assert baseline["size"] == 0 and baseline["max_size"] == KECCAK_MEMO_SIZE
        keccak256(b"lifecycle-probe")
        keccak256(b"lifecycle-probe")
        stats = hash_cache_stats()
        assert stats["size"] == 1
        assert stats["hits"] >= 1
        reset_process_caches()
        assert hash_cache_stats()["size"] == 0

    def test_clearing_does_not_change_digests(self):
        from repro.api import reset_process_caches
        from repro.crypto.keccak import keccak256

        before = keccak256(b"stable-across-clear")
        reset_process_caches()
        assert keccak256(b"stable-across-clear") == before
