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

#define ROTL64(x, s) (((x) << (s)) | ((x) >> (64 - (s))))

/* The 25 lanes live in locals named <prefix><row><column>: rows b g k m s
   (y = 0..4), columns a e i o u (x = 0..4), so lane x + 5y of the state
   array is, e.g., Abe (x=1, y=0) or Ami (x=2, y=3).  One ROUND reads the
   lanes of prefix A and writes those of prefix E: theta's column parities,
   then for each output row the five input lanes pi sends there, each XORed
   with its theta term and rotated by its rho offset on the way in, then chi
   across the row; iota is folded into the first lane. */
#define ROUND(A, E, rc)                                                       \
    do {                                                                      \
        uint64_t Ca = A##ba ^ A##ga ^ A##ka ^ A##ma ^ A##sa;                  \
        uint64_t Ce = A##be ^ A##ge ^ A##ke ^ A##me ^ A##se;                  \
        uint64_t Ci = A##bi ^ A##gi ^ A##ki ^ A##mi ^ A##si;                  \
        uint64_t Co = A##bo ^ A##go ^ A##ko ^ A##mo ^ A##so;                  \
        uint64_t Cu = A##bu ^ A##gu ^ A##ku ^ A##mu ^ A##su;                  \
        uint64_t Da = Cu ^ ROTL64(Ce, 1), De = Ca ^ ROTL64(Ci, 1);            \
        uint64_t Di = Ce ^ ROTL64(Co, 1), Do = Ci ^ ROTL64(Cu, 1);            \
        uint64_t Du = Co ^ ROTL64(Ca, 1);                                     \
        uint64_t B0, B1, B2, B3, B4;                                          \
        B0 = A##ba ^ Da;                B1 = ROTL64(A##ge ^ De, 44);          \
        B2 = ROTL64(A##ki ^ Di, 43);    B3 = ROTL64(A##mo ^ Do, 21);          \
        B4 = ROTL64(A##su ^ Du, 14);                                          \
        CHI(E, b) E##ba ^= (rc);                                              \
        B0 = ROTL64(A##bo ^ Do, 28);    B1 = ROTL64(A##gu ^ Du, 20);          \
        B2 = ROTL64(A##ka ^ Da, 3);     B3 = ROTL64(A##me ^ De, 45);          \
        B4 = ROTL64(A##si ^ Di, 61);                                          \
        CHI(E, g)                                                             \
        B0 = ROTL64(A##be ^ De, 1);     B1 = ROTL64(A##gi ^ Di, 6);           \
        B2 = ROTL64(A##ko ^ Do, 25);    B3 = ROTL64(A##mu ^ Du, 8);           \
        B4 = ROTL64(A##sa ^ Da, 18);                                          \
        CHI(E, k)                                                             \
        B0 = ROTL64(A##bu ^ Du, 27);    B1 = ROTL64(A##ga ^ Da, 36);          \
        B2 = ROTL64(A##ke ^ De, 10);    B3 = ROTL64(A##mi ^ Di, 15);          \
        B4 = ROTL64(A##so ^ Do, 56);                                          \
        CHI(E, m)                                                             \
        B0 = ROTL64(A##bi ^ Di, 62);    B1 = ROTL64(A##go ^ Do, 55);          \
        B2 = ROTL64(A##ku ^ Du, 39);    B3 = ROTL64(A##ma ^ Da, 41);          \
        B4 = ROTL64(A##se ^ De, 2);                                           \
        CHI(E, s)                                                             \
    } while (0)

#define CHI(E, row)                                                           \
    E##row##a = B0 ^ (~B1 & B2);                                              \
    E##row##e = B1 ^ (~B2 & B3);                                              \
    E##row##i = B2 ^ (~B3 & B4);                                              \
    E##row##o = B3 ^ (~B4 & B0);                                              \
    E##row##u = B4 ^ (~B0 & B1);

#define LANES(P)                                                              \
    P##ba, P##be, P##bi, P##bo, P##bu, P##ga, P##ge, P##gi, P##go, P##gu,     \
    P##ka, P##ke, P##ki, P##ko, P##ku, P##ma, P##me, P##mi, P##mo, P##mu,     \
    P##sa, P##se, P##si, P##so, P##su

/* Keccak-f[1600] on a 25-lane state: rounds in pairs, A -> E -> A, so no
   lane is ever copied back. */
static void keccak_f1600(uint64_t *s) {
    uint64_t LANES(A), LANES(E);
    Aba = s[0];  Abe = s[1];  Abi = s[2];  Abo = s[3];  Abu = s[4];
    Aga = s[5];  Age = s[6];  Agi = s[7];  Ago = s[8];  Agu = s[9];
    Aka = s[10]; Ake = s[11]; Aki = s[12]; Ako = s[13]; Aku = s[14];
    Ama = s[15]; Ame = s[16]; Ami = s[17]; Amo = s[18]; Amu = s[19];
    Asa = s[20]; Ase = s[21]; Asi = s[22]; Aso = s[23]; Asu = s[24];
    for (int round = 0; round < 24; round += 2) {
        ROUND(A, E, RC[round]);
        ROUND(E, A, RC[round + 1]);
    }
    s[0] = Aba;  s[1] = Abe;  s[2] = Abi;  s[3] = Abo;  s[4] = Abu;
    s[5] = Aga;  s[6] = Age;  s[7] = Agi;  s[8] = Ago;  s[9] = Agu;
    s[10] = Aka; s[11] = Ake; s[12] = Aki; s[13] = Ako; s[14] = Aku;
    s[15] = Ama; s[16] = Ame; s[17] = Ami; s[18] = Amo; s[19] = Amu;
    s[20] = Asa; s[21] = Ase; s[22] = Asi; s[23] = Aso; s[24] = Asu;
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
    PyObject *digest;
    if (PyBytes_CheckExact(data)) { /* every hot-path input: no buffer export */
        digest = PyBytes_FromStringAndSize(NULL, 32);
        if (digest != NULL)
            keccak256((const uint8_t *)PyBytes_AS_STRING(data), (size_t)PyBytes_GET_SIZE(data),
                      (uint8_t *)PyBytes_AS_STRING(digest));
        return digest;
    }
    Py_buffer view;
    if (PyObject_GetBuffer(data, &view, PyBUF_SIMPLE) < 0)
        return NULL;
    digest = PyBytes_FromStringAndSize(NULL, 32);
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
