"""Golden traces: a fixed sweep must reproduce the committed CSVs and
summary.json under tests/golden/ byte for byte.

The matrix (tests/golden/golden.cfg) is ARWHEAD, TRIDIA and QUAD(16,1,1e3)
x all six methods x xi_f {0, 1e-3} x xi_g {0, 1e-1}, seed 1, at most 25
iterations, diagnostics on.  Its traces contain updated, lengthened and
skipped pairs and alpha = 0 rows, and draw f noise as well as g noise.

The goldens are the bytes of numpy's OpenBLAS under its Haswell kernel,
which tests/conftest.py pins on x86-64.  Other kernels round dot and
matrix-vector products differently, and the difference changes control
flow, so no tolerance would cover it: an unpinned run on an AVX-512 host
writes other bytes, and so may another OpenBLAS version or a non-x86 host.
A change that alters results on purpose regenerates the goldens with

    OPENBLAS_CORETYPE=Haswell PYTHONPATH=src python -m noisyqn sweep --config tests/golden/golden.cfg --out tests/golden

and says in CHANGES.md what moved and why.
"""

import ctypes
from pathlib import Path

import numpy as np

from noisyqn.cli import main
from noisyqn.linalg import _OPENBLAS_NAMES

GOLDEN = Path(__file__).parent / "golden"


def openblas_core() -> str:
    """The kernel numpy's bundled OpenBLAS runs, found as
    ``linalg._openblas_thread_controls`` finds that library."""
    package = Path(np.__file__).parent
    for path in sorted([*package.parent.glob("numpy.libs/*openblas*"), *package.glob(".dylibs/*openblas*")]):
        library = ctypes.CDLL(str(path))
        for prefix, suffix in _OPENBLAS_NAMES:
            corename = getattr(library, f"{prefix}get_corename{suffix}", None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return "unknown (no bundled OpenBLAS)"


def blas_in_force() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        build = "BLAS build unknown"
    return f"numpy {np.__version__}, {build}, core {openblas_core()}"


def test_sweep_reproduces_goldens(tmp_path):
    code = main(["sweep", "--config", str(GOLDEN / "golden.cfg"), "--out", str(tmp_path)])
    assert code == 0
    want_files = sorted(p.name for p in GOLDEN.iterdir() if p.name != "golden.cfg")
    assert sorted(p.name for p in tmp_path.iterdir()) == want_files
    assert len(want_files) == 73
    differ = [n for n in want_files if (tmp_path / n).read_bytes() != (GOLDEN / n).read_bytes()]
    assert not differ, f"{len(differ)} of 73 files differ under {blas_in_force()}: {differ}"
