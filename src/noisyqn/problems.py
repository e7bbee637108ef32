"""Smooth unconstrained test problems with analytic gradients.

Each problem records its conventional starting point and the best function
value ``phi_star`` used for optimality-gap reporting.  Where the minimum is
known in closed form the exact value is stored; for ENGVAL1 and CRAGGLVY the
constants come from scipy's L-BFGS-B followed by a Newton polish with a
finite-difference Hessian (``scripts/compute_reference_minima.py``) and are
frozen here.

Gradient correctness for every registered problem is anchored by central
finite differences in the test suite rather than by trusting transcription.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Problem",
    "UnknownProblemError",
    "registry_lookup",
    "registered_names",
    "register",
    "make_quadratic",
    "check_gradient",
]


@dataclass(frozen=True, eq=False, kw_only=True)
class Problem:
    """An unconstrained minimization problem of dimension ``dim = len(x0)``.

    ``f_rows`` declares that ``eval_f`` also takes a (k, d) stack of points
    and returns their k values as an array, each bit-identical to
    ``eval_f`` of that row alone.  The line search then evaluates a block of
    trial points in one call (ARWHEAD and CRAGGLVY in the registry), and a
    row's value also becomes the trace's true value when the run steps to
    that row's point.  Leave it False unless the bits match exactly: a
    matrix product over the stack, for one, is not bit-identical to the
    matrix-vector products of its rows.

    The noisy oracle keeps references to the points it evaluates and to the
    values ``eval_f``/``eval_g`` return, so neither may be changed in place
    afterwards.  Every field is passed by keyword; ``phi_star`` must be a
    finite real number and ``f_rows`` a bool.
    """

    name: str
    eval_f: Callable[[np.ndarray], float]
    eval_g: Callable[[np.ndarray], np.ndarray]
    x0: np.ndarray
    phi_star: float
    f_rows: bool = False

    def __post_init__(self):
        try:
            x0 = np.asarray(self.x0)
        except ValueError:  # a ragged nested sequence
            x0 = np.asarray(self.x0, dtype=object)
        if not (x0.ndim == 1 and x0.size > 0 and x0.dtype.kind in "iuf"):
            raise ValueError(
                "x0 must be a non-empty 1-D array of real numbers, "
                f"got shape {x0.shape} of {x0.dtype}"
            )
        real = isinstance(self.phi_star, numbers.Real) and not isinstance(self.phi_star, bool)
        if not (real and math.isfinite(self.phi_star)):
            raise ValueError(f"phi_star must be a finite real number, got {self.phi_star!r}")
        if not isinstance(self.f_rows, bool):
            raise ValueError(f"f_rows must be a bool, got {self.f_rows!r}")

    @property
    def dim(self) -> int:
        return len(self.x0)


class UnknownProblemError(KeyError):
    def __init__(self, name: str, known: list[str]):
        super().__init__(
            f"unknown problem {name!r}; registered problems: {', '.join(known)}"
        )

    def __str__(self) -> str:  # KeyError would repr-quote the message
        return self.args[0]


# ---------------------------------------------------------------------------
# objective / gradient kernels
# ---------------------------------------------------------------------------


def _arwhead_f(x):
    # Written over the last axis, so a (k, d) stack gives its k values.  The
    # last coordinate's square must go through libm pow, as the scalar
    # x[-1] ** 2 does; float_power calls it, array squaring differs from it.
    head = x[..., :-1]
    last_sq = x[-1] ** 2 if x.ndim == 1 else np.float_power(x[:, -1:], 2.0)
    t = head**2 + last_sq
    s = (t**2 - 4.0 * head + 3.0).sum(axis=-1)
    return float(s) if s.ndim == 0 else s


def _arwhead_g(x):
    # 4 x_i t_i - 4 with t_i = x_i^2 + x_n^2, built in place in g's head.
    head = x[:-1]
    t = head**2
    t += x[-1] ** 2
    g = np.empty_like(x)
    g_head = g[:-1]
    np.multiply(4.0, head, out=g_head)
    g_head *= t
    g_head -= 4.0
    g[-1] = 4.0 * x[-1] * t.sum()
    return g


def _engval1_f(x):
    t = x[:-1] ** 2 + x[1:] ** 2
    return float((t**2).sum() - 4.0 * x[:-1].sum() + 3.0 * (x.size - 1))


def _engval1_g(x):
    t = x[:-1] ** 2 + x[1:] ** 2
    g = np.zeros_like(x)
    g[:-1] += 4.0 * x[:-1] * t - 4.0
    g[1:] += 4.0 * x[1:] * t
    return g


def _cragglvy_terms(x):
    # Contiguous copies of the four interleaved slices: numpy picks its SIMD
    # loops by memory layout, and the golden traces come from contiguous
    # input.  A (k, d) stack then sums C-contiguous rows, bit for bit as
    # each row alone.
    n = 2 * ((x.shape[-1] - 2) // 2)
    a = x[..., 0:n:2].copy()
    b = x[..., 1 : n + 1 : 2].copy()
    c = x[..., 2 : n + 2 : 2].copy()
    e = x[..., 3 : n + 3 : 2].copy()
    return n, a, b, c, e


def _power(t, n):
    """t**n for 3 <= n <= 8 as a fixed chain of IEEE products.

    numpy's float64 power is within 1 ulp, but it takes a scalar path on a
    negative base (116 ns an element against 3 ns on an AVX512 host), and
    its bits depend on the CPU's SIMD library.  A chain gives the same bits
    on every CPU.  Each of its k <= n roundings adds at most 2^-53 relative
    error, so it is within n ulp of the exact power.
    """
    t2 = t * t
    if n == 3:
        return t2 * t
    t4 = t2 * t2
    if n == 4:
        return t4
    if n == 5:
        return t4 * t
    if n == 6:
        return t4 * t2
    if n == 7:
        return t4 * t2 * t
    return t4 * t4


def _cragglvy_f(x):
    # Written over the last axis, so a (k, d) stack gives its k values.
    _, a, b, c, e = _cragglvy_terms(x)
    # wild line-search trial points overflow the powers to inf, which the
    # caller treats as an ordinary rejected value
    with np.errstate(over="ignore"):
        s = (
            _power(np.exp(a) - b, 4)
            + 100.0 * _power(b - c, 6)
            + _power(np.tan(c - e), 4)
            + _power(a, 8)
            + (e - 1.0) ** 2
        ).sum(axis=-1)
    return float(s) if s.ndim == 0 else s


def _cragglvy_g(x):
    n, a, b, c, e = _cragglvy_terms(x)
    g = np.zeros_like(x)
    with np.errstate(over="ignore"):
        exp_a = np.exp(a)
        w = c - e
        du = 1.0 / np.cos(w) ** 2
        # Each power once; each coordinate gets its terms in the order
        # j = 0, 1, 2, 3.
        d1_3, d2_5, u_3 = _power(exp_a - b, 3), _power(b - c, 5), _power(np.tan(w), 3)
        g[0:n:2] += 4.0 * d1_3 * exp_a + 8.0 * _power(a, 7)
        g[1 : n + 1 : 2] += -4.0 * d1_3 + 600.0 * d2_5
        g[2 : n + 2 : 2] += -600.0 * d2_5 + 4.0 * u_3 * du
        g[3 : n + 3 : 2] += -4.0 * u_3 * du + 2.0 * (e - 1.0)
    return g


def _tridia_f(x):
    w = np.arange(2, x.size + 1, dtype=float)
    t = 2.0 * x[1:] - x[:-1]
    return float((x[0] - 1.0) ** 2 + (w * t**2).sum())


def _tridia_g(x):
    w = np.arange(2, x.size + 1, dtype=float)
    t = 2.0 * x[1:] - x[:-1]
    g = np.zeros_like(x)
    g[0] = 2.0 * (x[0] - 1.0)
    g[1:] += 4.0 * w * t
    g[:-1] -= 2.0 * w * t
    return g


def _dqdrtic_f(x):
    return float((x[:-2] ** 2 + 100.0 * x[1:-1] ** 2 + 100.0 * x[2:] ** 2).sum())


def _dqdrtic_g(x):
    g = np.zeros_like(x)
    g[:-2] += 2.0 * x[:-2]
    g[1:-1] += 200.0 * x[1:-1]
    g[2:] += 200.0 * x[2:]
    return g


def _woods_views(x):
    a, b, c, e = x[0::4], x[1::4], x[2::4], x[3::4]
    return a, b, c, e


def _woods_f(x):
    a, b, c, e = _woods_views(x)
    return float(
        (
            100.0 * (b - a**2) ** 2
            + (1.0 - a) ** 2
            + 90.0 * (e - c**2) ** 2
            + (1.0 - c) ** 2
            + 10.0 * (b + e - 2.0) ** 2
            + 0.1 * (b - e) ** 2
        ).sum()
    )


def _woods_g(x):
    a, b, c, e = _woods_views(x)
    g = np.zeros_like(x)
    g[0::4] = -400.0 * a * (b - a**2) - 2.0 * (1.0 - a)
    g[1::4] = 200.0 * (b - a**2) + 20.0 * (b + e - 2.0) + 0.2 * (b - e)
    g[2::4] = -360.0 * c * (e - c**2) - 2.0 * (1.0 - c)
    g[3::4] = 180.0 * (e - c**2) + 20.0 * (b + e - 2.0) - 0.2 * (b - e)
    return g


def _nondia_f(x):
    t = x[0] - x[:-1] ** 2
    return float((x[0] - 1.0) ** 2 + 100.0 * (t**2).sum())


def _nondia_g(x):
    t = x[0] - x[:-1] ** 2
    g = np.zeros_like(x)
    g[0] = 2.0 * (x[0] - 1.0) + 200.0 * t.sum()
    g[:-1] -= 400.0 * x[:-1] * t
    return g


def _genrose_f(x):
    t = x[1:] - x[:-1] ** 2
    return float(1.0 + 100.0 * (t**2).sum() + ((x[1:] - 1.0) ** 2).sum())


def _genrose_g(x):
    t = x[1:] - x[:-1] ** 2
    g = np.zeros_like(x)
    g[1:] += 200.0 * t + 2.0 * (x[1:] - 1.0)
    g[:-1] -= 400.0 * x[:-1] * t
    return g


def _cragglvy_start(dim):
    x0 = np.full(dim, 2.0)
    x0[0] = 1.0
    return x0


_REGISTRY: dict[str, Callable[[], Problem]] = {}


def register(name: str, factory: Callable[[], Problem]) -> None:
    """Add a problem factory under a new name.  The registry's own problems
    are added through it too."""
    key = name.upper()
    if key in _REGISTRY:
        raise ValueError(f"problem {key!r} is already registered")
    _REGISTRY[key] = factory


def _register_standard(name, eval_f, eval_g, start, phi_star, f_rows=False) -> None:
    """Register one of the registry's own problems, all of dimension 100,
    starting from ``start(100)``."""
    shared = dict(name=name, eval_f=eval_f, eval_g=eval_g, phi_star=phi_star, f_rows=f_rows)
    register(name, lambda: Problem(x0=start(100), **shared))


# Zeros and GENROSE's 1.0 are exact minima; the ENGVAL1 and CRAGGLVY
# constants come from scripts/compute_reference_minima.py.
_register_standard("ARWHEAD", _arwhead_f, _arwhead_g, np.ones, 0.0, f_rows=True)
_register_standard(
    "ENGVAL1", _engval1_f, _engval1_g, lambda d: np.full(d, 2.0), 109.08813614309216
)
_register_standard(
    "CRAGGLVY", _cragglvy_f, _cragglvy_g, _cragglvy_start, 25.206129463129866, f_rows=True
)
_register_standard("TRIDIA", _tridia_f, _tridia_g, np.ones, 0.0)
_register_standard("DQDRTIC", _dqdrtic_f, _dqdrtic_g, lambda d: np.full(d, 3.0), 0.0)
_register_standard("WOODS", _woods_f, _woods_g, lambda d: np.tile([-3.0, -1.0], d // 2), 0.0)
_register_standard("NONDIA", _nondia_f, _nondia_g, lambda d: np.full(d, -1.0), 0.0)
_register_standard(
    "GENROSE", _genrose_f, _genrose_g, lambda d: np.arange(1, d + 1, dtype=float) / (d + 1), 1.0
)


def registered_names() -> list[str]:
    return sorted(_REGISTRY) + ["QUAD(d,m,M[,seed])"]


def registry_lookup(name: str) -> Problem:
    """Fetch a problem by name.

    Quadratics are parameterized inline, e.g. ``QUAD(50,1,100)`` for
    dimension 50 with eigenvalues log-spaced in [1, 100].  An optional fourth
    part picks the generator seed (``QUAD(50,1,100,7)`` or
    ``QUAD(50,1,100,seed=7)``); it defaults to 0.
    """
    if not isinstance(name, str):
        raise UnknownProblemError(name, registered_names())
    key = name.strip().upper()
    if key.startswith("QUAD(") and key.endswith(")"):
        parts = [part.strip() for part in key[5:-1].split(",")]
        if len(parts) not in (3, 4):
            raise UnknownProblemError(name, registered_names())
        try:
            d, m, big_m = int(parts[0]), float(parts[1]), float(parts[2])
            seed = 0
            if len(parts) == 4:
                seed = int(parts[3].removeprefix("SEED="))
        except ValueError:
            raise UnknownProblemError(name, registered_names()) from None
        return make_quadratic(d, m, big_m, seed)
    factory = _REGISTRY.get(key)
    if factory is None:
        raise UnknownProblemError(name, registered_names())
    return factory()


def make_quadratic(dim: int, m: float, big_m: float, seed: int) -> Problem:
    """Generate phi(x) = 0.5 x^T A x with eigenvalues log-spaced in [m, M].

    A = Q^T diag(lambda) Q for a seeded random orthogonal Q; the start point
    is a seeded unit vector scaled to norm 10.  The exact minimizer is the
    origin with phi_star = 0.
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    if not (np.isfinite(m) and np.isfinite(big_m)):
        raise ValueError("m and M must be finite")
    if not (0.0 < m <= big_m):
        raise ValueError("need 0 < m <= M")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    rng = np.random.default_rng(seed)
    lam = np.logspace(np.log10(m), np.log10(big_m), dim)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    a = q.T @ (lam[:, None] * q)
    a = 0.5 * (a + a.T)
    v = rng.standard_normal(dim)
    x0 = 10.0 * v / np.linalg.norm(v)

    def eval_f(x, _a=a):
        return float(0.5 * (x @ (_a @ x)))

    def eval_g(x, _a=a):
        return _a @ x

    return Problem(
        name=f"QUAD({dim},{m:g},{big_m:g},{seed})",
        eval_f=eval_f,
        eval_g=eval_g,
        x0=x0,
        phi_star=0.0,
    )


def check_gradient(problem: Problem, x: np.ndarray, h: float = 1e-5) -> float:
    """Max over coordinates of the relative error between the analytic
    gradient and a central finite difference with stencil width h.

    Relative error uses the convention |a - b| / max(1, |a|, |b|).  The
    default step balances truncation against cancellation for objectives of
    magnitude up to ~1e4 (the registry's worst case near the starts).
    """
    x = np.asarray(x, dtype=float)
    g = problem.eval_g(x)
    worst = 0.0
    step = np.zeros_like(x)
    for i in range(x.size):
        step[i] = h
        fd = (problem.eval_f(x + step) - problem.eval_f(x - step)) / (2.0 * h)
        step[i] = 0.0
        err = abs(g[i] - fd) / max(1.0, abs(g[i]), abs(fd))
        if err > worst:
            worst = err
    return worst
