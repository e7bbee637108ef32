"""Dense symmetric-matrix kernels for quasi-Newton solvers.

Vectors throughout the package are plain 1-D float64 numpy arrays.  Three
small types hold the quasi-Newton state: :class:`SymmetricMatrix`, the dense
d-by-d inverse Hessian, which ``bfgs_inverse_update`` changes in place;
:class:`CurvaturePair`, one (s, y) pair with its s.y; and
:class:`LimitedMemory`, the ring of recent pairs behind the two-loop
recursion.
"""

from __future__ import annotations

import ctypes
import math
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

__all__ = [
    "norm",
    "SymmetricMatrix",
    "CurvaturePair",
    "LimitedMemory",
    "bfgs_inverse_update",
    "two_loop_direction",
    "eigen_extremes",
    "blas_threads_for",
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
    """A quasi-Newton curvature pair (s, y) with its cached inner product.

    ``sy`` is the value of ``s @ y`` exactly as computed at construction
    time; downstream consumers reuse it rather than recomputing the dot.
    """

    s: np.ndarray
    y: np.ndarray
    sy: float

    def __post_init__(self):
        if self.s.shape != self.y.shape or self.s.ndim != 1:
            raise ValueError("s and y must be 1-D arrays of equal length")

    @classmethod
    def from_step(cls, s: np.ndarray, y: np.ndarray) -> "CurvaturePair":
        s = np.asarray(s, dtype=float)
        y = np.asarray(y, dtype=float)
        return cls(s=s, y=y, sy=float(s @ y))


class LimitedMemory:
    """Ring of the most recent curvature pairs for two-loop recursions."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self._pairs: deque[CurvaturePair] = deque(maxlen=capacity)

    @property
    def pairs(self) -> tuple[CurvaturePair, ...]:
        """Stored pairs, oldest first."""
        return tuple(self._pairs)

    @property
    def gamma(self) -> float:
        """Initial-matrix scaling: s.y / y.y of the newest pair, 1 if empty.
        ``push`` checks only s.y > 0: the solver's pair rule keeps out a
        pair whose y.y underflows to 0, on which this would divide by 0."""
        if not self._pairs:
            return 1.0
        newest = self._pairs[-1]
        return newest.sy / float(newest.y @ newest.y)

    def push(self, pair: CurvaturePair) -> None:
        if pair.sy <= 0.0:
            raise ValueError(f"curvature pair must have s.y > 0, got {pair.sy}")
        self._pairs.append(pair)


def bfgs_inverse_update(h: SymmetricMatrix, pair: CurvaturePair) -> None:
    """Apply the inverse-Hessian BFGS update to ``h.dense`` in place.

    The update (I - rho s y^T) H (I - rho y s^T) + rho s s^T with
    rho = 1 / (s.y) (Nocedal & Wright (6.17)) is computed in a scale-free
    form: with r = 1 / sqrt(s.y), u = r s and v = r H y,

        H - u v^T - v u^T + (y.Hy / s.y + 1) u u^T.

    Scaling s and y together by a power of two leaves u, v and the
    coefficient with the same bits, so the result does not change, and no
    intermediate leaves float range for any normal s.y > 0.  The pair must
    satisfy s.y > 0; a non-positive value signals a curvature contract
    violation upstream and raises, as does a pair of the wrong dimension,
    both before H is touched.

    The result is exactly symmetric when H is: ``cross + cross.T`` and
    ``np.outer(u, u)`` are symmetric in IEEE arithmetic, and so are their
    scalings and their sums with H.
    """
    if pair.sy <= 0.0:
        raise ValueError(f"bfgs_inverse_update requires s.y > 0, got {pair.sy}")
    dense = h.dense
    if pair.s.shape[0] != dense.shape[0]:
        raise ValueError("pair dimension does not match matrix order")
    y = pair.y
    root = 1.0 / math.sqrt(pair.sy)
    hy = dense @ y
    u = root * pair.s
    cross = np.outer(u, root * hy)
    dense -= cross + cross.T
    dense += (float(y @ hy) / pair.sy + 1.0) * np.outer(u, u)


def two_loop_direction(memory: LimitedMemory, g: np.ndarray) -> np.ndarray:
    """Return H g via the limited-memory two-loop recursion.

    H is the matrix implicitly defined by the stored pairs applied to the
    scaled initial matrix gamma * I.  With an empty memory this is just g.
    """
    q = np.array(g, dtype=float, copy=True)
    pairs = memory.pairs
    alphas = np.empty(len(pairs))
    for i in range(len(pairs) - 1, -1, -1):
        pair = pairs[i]
        alphas[i] = float(pair.s @ q) / pair.sy
        q -= alphas[i] * pair.y
    r = memory.gamma * q
    for i, pair in enumerate(pairs):
        beta = float(pair.y @ r) / pair.sy
        r += (alphas[i] - beta) * pair.s
    return r


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
