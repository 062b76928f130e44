"""Optional native Keccak-256 backend, compiled with the system C compiler.

PR 2 regenerated the pure-Python Keccak-f[1600] permutation as unrolled
straight-line code (~2.7x), but ~250 microseconds per permutation is still
the engine's hard floor: every *unique* transaction hash, trie node, and
state commitment in a sweep pays it.  This module removes that floor where
the hardware allows: at first use it compiles a small, dependency-free C
implementation of one-shot Keccak-256 as a CPython extension module
(``cc -O3 -shared`` against the interpreter's ``Python.h``), caches it under
the system temp directory keyed by the source digest and the interpreter's
extension suffix, and loads it through :mod:`importlib`.  The module's one
function takes any buffer and returns the 32-byte digest as ``bytes``
allocated in C: a call costs what a builtin call costs, with no argument
marshalling or output buffer on the Python side.

Strictly optional and strictly verified:

* no compiler, no ``Python.h``, a failed compile, or a failed load simply
  returns ``None`` and :mod:`repro.crypto.keccak` keeps using the pure-Python
  sponge;
* :mod:`repro.crypto.keccak` cross-checks the loaded function against the
  pure-Python implementation's pinned digests on a battery of padding-boundary
  vectors and discards it on any mismatch, so a bad toolchain can never change
  digests;
* ``REPRO_PURE_KECCAK=1`` in the environment disables the backend outright
  (useful for benchmarking the fallback and for debugging).

The C code implements original Keccak (pre-SHA3 0x01 multi-rate padding),
rate 1088, little-endian lane extraction — bit-identical to
:class:`repro.crypto.keccak.Keccak256`.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path
from typing import Callable, Optional

__all__ = ["load_native_keccak256"]

_MODULE_NAME = "repro_keccak"
"""The extension's module name; the C source's ``PyInit_`` function matches it."""

_C_SOURCE = r"""
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stddef.h>
#include <string.h>

static const uint64_t RC[24] = {
    0x0000000000000001ULL, 0x0000000000008082ULL, 0x800000000000808aULL,
    0x8000000080008000ULL, 0x000000000000808bULL, 0x0000000080000001ULL,
    0x8000000080008081ULL, 0x8000000000008009ULL, 0x000000000000008aULL,
    0x0000000000000088ULL, 0x0000000080008009ULL, 0x000000008000000aULL,
    0x000000008000808bULL, 0x800000000000008bULL, 0x8000000000008089ULL,
    0x8000000000008003ULL, 0x8000000000008002ULL, 0x8000000000000080ULL,
    0x000000000000800aULL, 0x800000008000000aULL, 0x8000000080008081ULL,
    0x8000000000008080ULL, 0x0000000080000001ULL, 0x8000000080008008ULL,
};

static const int RHO[25] = {
     0,  1, 62, 28, 27,
    36, 44,  6, 55, 20,
     3, 10, 43, 25, 39,
    41, 45, 15, 21,  8,
    18,  2, 61, 56, 14,
};

#define ROTL64(x, s) (((x) << (s)) | ((x) >> (64 - (s))))

static void keccak_f1600(uint64_t *a) {
    uint64_t b[25], c[5], d[5];
    for (int round = 0; round < 24; round++) {
        /* theta */
        for (int x = 0; x < 5; x++)
            c[x] = a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20];
        for (int x = 0; x < 5; x++)
            d[x] = c[(x + 4) % 5] ^ ROTL64(c[(x + 1) % 5], 1);
        for (int i = 0; i < 25; i++)
            a[i] ^= d[i % 5];
        /* rho + pi */
        for (int x = 0; x < 5; x++)
            for (int y = 0; y < 5; y++) {
                int s = RHO[x + 5 * y];
                uint64_t lane = s ? ROTL64(a[x + 5 * y], s) : a[x + 5 * y];
                b[y + 5 * ((2 * x + 3 * y) % 5)] = lane;
            }
        /* chi */
        for (int x = 0; x < 5; x++)
            for (int y = 0; y < 5; y++)
                a[x + 5 * y] =
                    b[x + 5 * y] ^ (~b[(x + 1) % 5 + 5 * y] & b[(x + 2) % 5 + 5 * y]);
        /* iota */
        a[0] ^= RC[round];
    }
}

static uint64_t load64(const uint8_t *p) {
    uint64_t v;
    memcpy(&v, p, 8);
    return v; /* little-endian hosts only; the loader self-test guards this */
}

static void keccak256(const uint8_t *data, size_t length, uint8_t *out) {
    uint64_t state[25];
    uint8_t block[136];
    memset(state, 0, sizeof(state));
    while (length >= 136) {
        for (int i = 0; i < 17; i++)
            state[i] ^= load64(data + 8 * i);
        keccak_f1600(state);
        data += 136;
        length -= 136;
    }
    memset(block, 0, sizeof(block));
    memcpy(block, data, length);
    block[length] = 0x01;       /* original Keccak multi-rate padding */
    block[135] |= 0x80;
    for (int i = 0; i < 17; i++)
        state[i] ^= load64(block + 8 * i);
    keccak_f1600(state);
    memcpy(out, state, 32);
}

static PyObject *py_keccak256(PyObject *module, PyObject *data) {
    Py_buffer view;
    if (PyObject_GetBuffer(data, &view, PyBUF_SIMPLE) < 0)
        return NULL;
    PyObject *digest = PyBytes_FromStringAndSize(NULL, 32);
    if (digest != NULL)
        keccak256(view.buf, (size_t)view.len, (uint8_t *)PyBytes_AS_STRING(digest));
    PyBuffer_Release(&view);
    return digest;
}

static PyMethodDef methods[] = {
    {"keccak256", py_keccak256, METH_O, "One-shot Keccak-256 of a buffer."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "repro_keccak", NULL, -1, methods};

PyMODINIT_FUNC PyInit_repro_keccak(void) { return PyModule_Create(&module); }
"""


def _library_path() -> Path:
    """The cache file: one per source digest and interpreter ABI (the suffix
    names it), so two interpreters never load each other's build."""
    digest = hashlib.sha256(_C_SOURCE.encode("utf-8")).hexdigest()[:16]
    uid = os.getuid() if hasattr(os, "getuid") else 0
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    return Path(tempfile.gettempdir()) / f"repro-keccak-{uid}" / f"keccak-{digest}{suffix}"


def _python_include() -> Path:
    return Path(sysconfig.get_paths()["include"])


def _compile_library(lib_path: Path) -> bool:
    compiler = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    include = _python_include()
    if compiler is None or not (include / "Python.h").is_file():
        return False
    cache_dir = lib_path.parent
    cache_dir.mkdir(mode=0o700, parents=True, exist_ok=True)
    if cache_dir.stat().st_uid != (os.getuid() if hasattr(os, "getuid") else 0):
        return False  # refuse a temp dir someone else planted
    with tempfile.TemporaryDirectory(dir=cache_dir) as scratch:
        source = Path(scratch) / "keccak.c"
        source.write_text(_C_SOURCE, encoding="utf-8")
        built = Path(scratch) / lib_path.name
        command = [compiler, "-O3", "-shared", "-fPIC", f"-I{include}", "-o", str(built), str(source)]
        if sys.platform == "darwin":
            command[1:1] = ["-undefined", "dynamic_lookup"]  # symbols come from the interpreter
        result = subprocess.run(command, capture_output=True, timeout=60)
        if result.returncode != 0 or not built.exists():
            return False
        os.replace(built, lib_path)  # atomic: concurrent builders converge
    return True


def _owned_by_us(path: Path) -> bool:
    """True iff ``path`` exists, belongs to this uid, and is not writable by
    anyone else — the guard against loading a shared-object another user
    planted at the predictable cache path on a shared machine."""
    try:
        status = path.stat()
    except OSError:
        return False
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return status.st_uid == uid and not (status.st_mode & 0o022)


def load_native_keccak256() -> Optional[Callable[[bytes], bytes]]:
    """The compiled one-shot Keccak-256, or ``None`` when unavailable.

    Callers MUST verify the returned function against the pure-Python
    implementation's digests before trusting it (``repro.crypto.keccak`` does).
    """
    if os.environ.get("REPRO_PURE_KECCAK"):
        return None
    lib_path = _library_path()
    try:
        if not _owned_by_us(lib_path):
            lib_path.unlink(missing_ok=True)  # stale or foreign: rebuild
            if not _compile_library(lib_path) or not _owned_by_us(lib_path):
                return None
        if not _owned_by_us(lib_path.parent):
            return None  # a foreign cache dir could swap the file under us
        loader = importlib.machinery.ExtensionFileLoader(_MODULE_NAME, str(lib_path))
        module = importlib.util.module_from_spec(importlib.util.spec_from_loader(_MODULE_NAME, loader))
        loader.exec_module(module)
        return module.keccak256
    except (ImportError, OSError, subprocess.SubprocessError):
        return None
