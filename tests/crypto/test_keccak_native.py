"""The optional compiled keccak backend must be bit-identical to the pure
Python sponge — or absent.  Either way digests never change."""

import importlib.machinery
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import keccak as keccak_module
from repro.crypto.keccak import Keccak256, keccak256

BOUNDARY_VECTORS = [
    b"",
    b"a",
    b"abc",
    bytes(range(256)),
    b"\x00" * 32,
    b"x" * 134,
    b"x" * 135,  # one byte below the rate
    b"x" * 136,  # exactly one rate block
    b"x" * 137,
    b"x" * 271,
    b"x" * 272,  # exactly two rate blocks
]


class TestBackendParity:
    def test_known_answer(self):
        # Keccak-256("") — the original-padding vector, not NIST SHA3-256.
        assert (
            keccak256(b"").hex()
            == "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
        )

    def test_native_backend_matches_pure_python_on_boundaries(self):
        native = keccak_module._native_backend()  # lazy: probes on first call
        if native is None:
            pytest.skip("no native keccak backend in this environment")
        for vector in BOUNDARY_VECTORS:
            assert native(vector) == Keccak256(vector).digest(), len(vector)

    def test_pinned_self_test_digests_are_the_pure_sponge_s(self):
        # The native backend is checked against these pins, not against a
        # live run of the sponge; this keeps the pins as strong as that run.
        assert len(keccak_module.NATIVE_SELF_TEST) == 8
        for vector, digest in keccak_module.NATIVE_SELF_TEST:
            assert Keccak256(vector).hexdigest() == digest, len(vector)

    def test_a_backend_that_disagrees_with_a_pin_is_discarded(self, monkeypatch):
        import repro.crypto.keccak_native as native_module

        monkeypatch.setattr(native_module, "load_native_keccak256", lambda: lambda data: b"\x00" * 32)
        assert keccak_module._load_native_backend() is None

    def test_cached_entry_point_matches_reference_sponge(self):
        # Whatever backend is active behind the memo, the observable digest
        # must equal the reference implementation's.
        for vector in BOUNDARY_VECTORS:
            assert keccak256(vector) == Keccak256(vector).digest()

    def test_env_kill_switch_disables_backend(self, monkeypatch):
        from repro.crypto.keccak_native import load_native_keccak256

        monkeypatch.setitem(os.environ, "REPRO_PURE_KECCAK", "1")
        assert load_native_keccak256() is None

    def test_import_does_not_probe_the_backend(self):
        # Importing the package must not shell out to a compiler or touch
        # the filesystem; the backend loads on the first digest computation.
        import subprocess
        import sys

        probe = (
            "import repro.crypto.keccak as k; "
            "assert k._NATIVE_BACKEND_PROBED is False; "
            "k.keccak256(b'x'); "
            "assert k._NATIVE_BACKEND_PROBED is True; "
            "print('lazy')"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert "lazy" in result.stdout

    def test_permutation_compiles_on_first_pure_digest_only(self):
        # Import compiles nothing, and neither does a digest the native
        # backend serves; the pure sponge (REPRO_PURE_KECCAK=1, or no
        # compiler) pays for the unrolled permutation on its first block.
        import subprocess
        import sys

        probe = (
            "import os, repro.crypto.keccak as k; "
            "lazy = k._permute; "
            "digest = k.keccak256(b'abc'); "
            "assert (k._permute is not lazy) == (k._NATIVE_KECCAK256 is None); "
            "assert digest == k.Keccak256(b'abc').digest() and k._permute is not lazy; "
            "print(digest.hex())"
        )
        native_allowed = {key: value for key, value in os.environ.items() if key != "REPRO_PURE_KECCAK"}
        for environment in (native_allowed, {**os.environ, "REPRO_PURE_KECCAK": "1"}):
            result = subprocess.run(
                [sys.executable, "-c", probe], capture_output=True, text=True, env=environment
            )
            assert result.returncode == 0, result.stderr
            assert result.stdout.strip() == keccak_module.NATIVE_SELF_TEST[1][1]

    def test_foreign_cache_file_is_rebuilt_not_loaded(self, monkeypatch, tmp_path):
        # A pre-existing .so that fails the ownership/permission check must
        # never reach CDLL; the loader rebuilds over it.
        import repro.crypto.keccak_native as native_module

        planted = tmp_path / "keccak-planted.so"
        planted.write_bytes(b"not a real library")
        planted.chmod(0o777)  # world-writable -> fails _owned_by_us
        monkeypatch.setattr(native_module, "_library_path", lambda: planted)
        native = native_module.load_native_keccak256()
        if native is not None:  # a compiler was available: rebuilt in place
            assert native_module._owned_by_us(planted)
            assert planted.read_bytes() != b"not a real library"

    def test_loader_failure_is_contained(self, monkeypatch):
        # A broken toolchain must degrade to pure Python, never raise.
        import repro.crypto.keccak_native as native_module

        missing = native_module._library_path().with_name("missing.so")
        monkeypatch.setattr(native_module, "_compile_library", lambda path: False)
        monkeypatch.setattr(native_module, "_library_path", lambda: missing)
        assert native_module.load_native_keccak256() is None

    def test_cache_file_is_named_for_the_interpreter_abi(self):
        # Two interpreters sharing a temp dir never load each other's build.
        import repro.crypto.keccak_native as native_module

        name = native_module._library_path().name
        assert name.endswith(importlib.machinery.EXTENSION_SUFFIXES[0])

    def test_missing_python_headers_degrade_to_pure_python(self, monkeypatch, tmp_path):
        import repro.crypto.keccak_native as native_module

        monkeypatch.setattr(native_module, "_python_include", lambda: tmp_path / "no-headers")
        monkeypatch.setattr(native_module, "_library_path", lambda: tmp_path / "cache" / "keccak.so")
        assert native_module.load_native_keccak256() is None

    def test_the_backend_is_an_extension_function_not_a_ctypes_shim(self):
        native = keccak_module._native_backend()
        if native is None:
            pytest.skip("no native keccak backend in this environment")
        assert type(native).__name__ == "builtin_function_or_method"


BUFFER_KINDS = (bytes, bytearray, memoryview)


@settings(max_examples=120, deadline=None)
@given(
    st.one_of(
        st.binary(max_size=700),
        st.sampled_from([134, 135, 136, 137, 271, 272, 273]).flatmap(
            lambda size: st.binary(min_size=size, max_size=size)
        ),
    ),
    st.sampled_from(BUFFER_KINDS),
)
def test_property_extension_matches_the_sponge(data, kind):
    """Any length up to 700 bytes, across the 136-byte rate boundaries, from
    any buffer type the extension accepts."""
    native = keccak_module._native_backend()
    if native is None:
        pytest.skip("no native keccak backend in this environment")
    assert native(kind(data)) == Keccak256(data).digest()
