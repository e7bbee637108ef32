"""Kernels of the quasi-Newton operators.

Vectors throughout the package are plain 1-D float64 numpy arrays.  Three
small types hold the quasi-Newton state: :class:`SymmetricMatrix`, the dense
d-by-d inverse Hessian, which ``bfgs_inverse_update`` changes in place;
:class:`CurvaturePair`, one (s, y) pair with its s.y; and
:class:`LimitedMemory`, the most recent pairs in the compact form of Byrd,
Nocedal & Schnabel (Math. Prog. 63, 1994), from which
``two_loop_direction`` applies the L-BFGS inverse Hessian.
"""

from __future__ import annotations

import ctypes
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

import numpy as np

__all__ = [
    "SymmetricMatrix",
    "CurvaturePair",
    "LimitedMemory",
    "bfgs_inverse_update",
    "two_loop_direction",
    "eigen_extremes",
]


def norm(v: np.ndarray) -> float:
    """The Euclidean norm of a 1-D float64 vector: the bits of
    ``np.linalg.norm(v)``, which takes the same ``v.dot(v)`` and square
    root, without its dispatch."""
    return math.sqrt(float(v.dot(v)))


class SymmetricMatrix:
    """A d-by-d symmetric matrix held as one dense float64 array, ``dense``,
    which ``bfgs_inverse_update`` changes in place.  Neither symmetry nor
    finiteness is checked: symmetry comes from the arithmetic of the update,
    and the solver checks each direction H g for finiteness.
    """

    __slots__ = ("dense",)

    def __init__(self, dense: np.ndarray):
        self.dense = dense

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.dense @ v


@dataclass(frozen=True, eq=False)
class CurvaturePair:
    """A quasi-Newton curvature pair (s, y) of equal-length 1-D float64
    arrays.  ``sy`` is no argument: construction computes ``float(s @ y)``,
    whose bits the update and the limited memory reuse.
    """

    s: np.ndarray
    y: np.ndarray
    sy: float = field(init=False)

    def __post_init__(self):
        if self.s.shape != self.y.shape or self.s.ndim != 1:
            raise ValueError("s and y must be 1-D arrays of equal length")
        object.__setattr__(self, "sy", float(self.s @ self.y))


class LimitedMemory:
    """The most recent curvature pairs, at most ``capacity``, kept
    scale-free for the compact L-BFGS product.

    Each pair enters as u = s / sqrt(s.y) and v = y / sqrt(s.y), so that
    u.v = 1: a row of the preallocated (capacity, d) arrays ``_u`` and
    ``_v``, oldest first.  With U and V the first k rows, the memory also
    keeps V V^T and the inverse of the unit upper-triangular
    R = triu(U V^T).  A push costs O(capacity * d + capacity^2), the
    eviction of the oldest pair included: the arrays shift up one row, and
    the inverse of R without its first row and column is the trailing block
    of R's inverse.  Scaling s and y together by a power of two leaves u and
    v with the same bits, and so every product taken from them, as long as
    s.y and the entries stay normal floats.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self._capacity = capacity
        self._count = 0  # pairs held: the first rows of _u and _v
        self._u = self._v = None  # (capacity, d), allocated by the first push
        self._vv = np.zeros((capacity, capacity))
        self._r_inv = np.zeros((capacity, capacity))
        self._gamma = 1.0

    @property
    def gamma(self) -> float:
        """Initial-matrix scaling: 1 / v.v of the newest pair, which is
        s.y / y.y; 1 if empty.  It needs no y.y, which can underflow to 0
        while s.y > 0."""
        return self._gamma

    def push(self, pair: CurvaturePair) -> None:
        if pair.sy <= 0.0:
            raise ValueError(f"curvature pair must have s.y > 0, got {pair.sy}")
        root = 1.0 / math.sqrt(pair.sy)
        u, v = root * pair.s, root * pair.y
        if self._u is None:
            self._u = np.zeros((self._capacity, u.shape[0]))
            self._v = np.zeros_like(self._u)
        k = self._count
        if k == self._capacity:
            for array in (self._u, self._v):
                array[:-1] = array[1:]
            for array in (self._vv, self._r_inv):
                array[:-1, :-1] = array[1:, 1:]
            k -= 1
        self._count = k + 1
        self._u[k] = u
        self._v[k] = v
        vv = self._v[: k + 1].dot(v)
        self._vv[: k + 1, k] = vv
        self._vv[k, : k + 1] = vv
        # [[R, r], [0, 1]]^-1 = [[R^-1, -R^-1 r], [0, 1]]
        self._r_inv[:k, k] = -self._r_inv[:k, :k].dot(self._u[:k].dot(v))
        self._r_inv[k, k] = 1.0
        self._gamma = 1.0 / vv[k]


def bfgs_inverse_update(h: SymmetricMatrix, pair: CurvaturePair) -> None:
    """Apply the inverse-Hessian BFGS update to ``h.dense`` in place.

    The update (I - rho s y^T) H (I - rho y s^T) + rho s s^T with
    rho = 1 / (s.y) (Nocedal & Wright (6.17)) is computed in a scale-free
    form: with r = 1 / sqrt(s.y), u = r s and w = r H y,

        H - (u w^T + w u^T) + (y.Hy / s.y + 1) u u^T.

    Scaling s and y together by a power of two leaves u, w and the
    coefficient with the same bits, so the result does not change, and no
    intermediate leaves float range for any normal s.y > 0.  The pair must
    satisfy s.y > 0; a non-positive value signals a curvature contract
    violation upstream and raises, as does a pair of the wrong dimension,
    both before H is touched.

    The three outer products are BLAS rank-1 products, each entry one
    rounded product as ``np.outer`` gives it, and are summed in place.  The
    result is exactly symmetric when H is: entry (i, j) of u w^T + w u^T is
    u_i w_j + w_i u_j, the same sum as entry (j, i), and u u^T is
    symmetric.
    """
    if pair.sy <= 0.0:
        raise ValueError(f"bfgs_inverse_update requires s.y > 0, got {pair.sy}")
    dense = h.dense
    if pair.s.shape[0] != dense.shape[0]:
        raise ValueError("pair dimension does not match matrix order")
    y = pair.y
    root = 1.0 / math.sqrt(pair.sy)
    hy = dense.dot(y)
    u = root * pair.s
    w = root * hy
    column, row = u[:, None], u[None, :]
    cross = column.dot(w[None, :])
    cross += w[:, None].dot(row)
    dense -= cross
    square = column.dot(row)
    square *= float(y.dot(hy)) / pair.sy + 1.0
    dense += square


def two_loop_direction(memory: LimitedMemory, g: np.ndarray) -> np.ndarray:
    """Return H g for the L-BFGS inverse Hessian H of the stored pairs,
    applied to the scaled initial matrix gamma * I; with an empty memory,
    a copy of g.

    H is applied in its compact form (Byrd, Nocedal & Schnabel, Math.
    Prog. 63, 1994, Theorem 2.2) on the memory's scale-free rows U and V,
    where D = I and R is unit upper-triangular:

        H g = gamma g + U^T R^-T (q + gamma (V V^T q - V g)) - gamma V^T q,
        q = R^-1 U g,

    four (k x d) matrix-vector products and O(k^2) small work.  The
    two-loop recursion, which gives the same H g, is the tests' reference;
    the name stays because the benchmark's tracer times this function by
    it.
    """
    k = memory._count
    if k == 0:
        return np.array(g, dtype=float, copy=True)
    u, v = memory._u[:k], memory._v[:k]
    r_inv = memory._r_inv[:k, :k]
    gamma = memory._gamma
    q = r_inv.dot(u.dot(g))
    w = r_inv.T.dot(q + gamma * (memory._vv[:k, :k].dot(q) - v.dot(g)))
    return gamma * g + u.T.dot(w) - gamma * v.T.dot(q)


def eigen_extremes(a: SymmetricMatrix) -> tuple[float, float]:
    """Return (lambda_min, lambda_max) of a symmetric matrix via LAPACK.

    Raises ``np.linalg.LinAlgError`` if the eigenvalue iteration does not
    converge; callers using this for diagnostics should treat that as a
    missing data point.
    """
    values = np.linalg.eigvalsh(a.dense)
    return float(values[0]), float(values[-1])


# Below this order OpenBLAS's helper threads make the solver's matrix-vector
# products and eigvalsh no faster on a 2-core machine (order 300: equal within
# timing noise; order 500: eigvalsh 1.2x faster with two threads, order 1000:
# 1.7x).
SERIAL_BLAS_MAX_ORDER = 400

# Spellings of OpenBLAS's thread-count functions: plain builds export
# openblas_*, the scipy-openblas builds in numpy's wheels add a prefix and,
# with 64-bit integers, a suffix.
_OPENBLAS_NAMES = (
    ("scipy_openblas_", "64_"),
    ("scipy_openblas_", ""),
    ("openblas_", "64_"),
    ("openblas_", ""),
)


@cache
def _openblas_thread_controls():
    """(get, set) of the thread count of the OpenBLAS bundled with numpy,
    or None when numpy carries no OpenBLAS of its own."""
    package = Path(np.__file__).parent
    found = [*package.parent.glob("numpy.libs/*openblas*"), *package.glob(".dylibs/*openblas*")]
    for path in sorted(found):
        try:
            library = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix, suffix in _OPENBLAS_NAMES:
            get = getattr(library, f"{prefix}get_num_threads{suffix}", None)
            set_ = getattr(library, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextmanager
def blas_threads_for(order: int):
    """Run numpy's OpenBLAS on the calling thread only while matrices of
    this order are in use, if the order is below ``SERIAL_BLAS_MAX_ORDER``;
    restore its thread count afterwards.

    At such orders the helper threads buy no speed, but they spin between
    calls on a second core, and every call waits for them: when something
    else runs on that core, the solver slows down with it.  Larger orders,
    and a BLAS other than numpy's bundled OpenBLAS, are left as they are.
    The thread count belongs to the process, so two threads of one process
    must not be inside this at once.
    """
    controls = _openblas_thread_controls()
    if order >= SERIAL_BLAS_MAX_ORDER or controls is None:
        yield
        return
    get, set_ = controls
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)
