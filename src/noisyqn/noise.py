"""Bounded uniform noise injection for function and gradient oracles.

Every evaluation draws its noise from a counter-based stream keyed by
(seed, evaluation index), with coordinates consumed in order from that
stream.  Replaying the same seed and call sequence therefore reproduces the
exact same values regardless of wall clock, thread, or process — which is
what makes parallel sweeps bit-identical to serial ones.

The gradient streams of consecutive evaluations overlap, a known defect: a
draw starts at Philox counter [index, 1, 0, 0] and each 4 coordinates take
the next counter value, so draw k + 1 repeats draw k's coordinates 4, 5, ...
in positions 0, 1, ...  At d = 100 the gradient noise of up to 25
consecutive evaluations is correlated this way.  Function draws take one
counter value each and do not overlap.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .problems import Problem

__all__ = ["NoiseSpec", "NoisyOracle"]

_SCHEDULES = ("constant", "intermittent")

# Stream tags keep function and gradient draws on disjoint counters.
_TAG_F = 0
_TAG_G = 1

_KEY_MASK = (1 << 128) - 1

# Gradient evaluations remembered for ``true_g``: the tolerant variants'
# beta loop evaluates g after the accepted point, which four cover.
_G_HISTORY = 4


@dataclass(frozen=True)
class NoiseSpec:
    """How noise is injected into a problem's oracles.

    xi_f and xi_g are the half-widths of the uniform errors added to f and
    to each gradient coordinate.  With the "intermittent" schedule the noise
    toggles on and off every ``n_noise`` iterations; ``start_noisy`` selects
    which state the first block is in.  ``omega`` scales only the *reported*
    gradient-noise bound handed to noise-aware methods, never the injected
    noise itself.
    """

    xi_f: float = 0.0
    xi_g: float = 0.0
    schedule: str = "constant"
    n_noise: int | None = None
    start_noisy: bool = True
    seed: int = 0
    omega: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.xi_f) and self.xi_f >= 0.0):
            raise ValueError("xi_f must be finite and >= 0")
        if not (math.isfinite(self.xi_g) and self.xi_g >= 0.0):
            raise ValueError("xi_g must be finite and >= 0")
        if self.schedule not in _SCHEDULES:
            raise ValueError(f"schedule must be one of {_SCHEDULES}")
        if self.schedule == "intermittent" and (self.n_noise is None or self.n_noise < 1):
            raise ValueError("intermittent schedule needs n_noise >= 1")
        if not (math.isfinite(self.omega) and self.omega > 0.0):
            raise ValueError("omega must be finite and > 0")


class NoisyOracle:
    """Wraps a problem with seeded, bounded, per-call noise.

    The solver advances ``set_iteration`` so the intermittent schedule can
    resolve whether noise is active.  ``f_evals`` / ``g_evals`` each grow by
    exactly one per call.  ``unused_f_rows`` counts the rows of the line
    search's block evaluations that no trial consumed; they never enter
    ``f_evals``.  ``max_f_noise`` and ``max_g_noise_norm`` track the largest
    injected errors actually seen, for bound auditing.

    ``true_f`` and ``true_g`` give the noiseless values at a point for the
    solver's trace.  The oracle remembers the point and noiseless value of
    its latest ``noisy_f`` call and of its last four ``noisy_g`` calls, and
    answers from them when a point has exactly the bits asked for.  It keeps
    references, not copies, to the arrays it is handed and returns: neither
    the caller nor the problem may change them in place afterwards.
    """

    def __init__(self, problem: Problem, spec: NoiseSpec):
        self.problem = problem
        self.spec = spec
        self.iteration = 0
        self.f_evals = 0
        self.g_evals = 0
        self.unused_f_rows = 0
        self.max_f_noise = 0.0
        self.max_g_noise_norm = 0.0
        self._last_f: tuple[np.ndarray, float] | None = None
        self._recent_g: deque[tuple[np.ndarray, np.ndarray]] = deque(maxlen=_G_HISTORY)
        # One generator, rewound for every draw: the fresh state of a Philox
        # built with counter [index, tag, 0, 0] is this state with that
        # counter (an empty buffer, no half-used 32-bit word).
        self._bits = np.random.Philox(key=spec.seed & _KEY_MASK)
        self._rng = np.random.Generator(self._bits)
        self._fresh = self._bits.state
        self._counter = self._fresh["state"]["counter"]

    def set_iteration(self, k: int) -> None:
        self.iteration = k

    def noise_active(self) -> bool:
        spec = self.spec
        if spec.schedule == "constant":
            return True
        block = self.iteration // spec.n_noise
        return (block % 2 == 0) == spec.start_noisy

    def _stream(self, index: int, tag: int) -> np.random.Generator:
        self._counter[0] = index
        self._counter[1] = tag
        self._bits.state = self._fresh
        return self._rng

    def noisy_f(self, x: np.ndarray, value: float | None = None) -> float:
        """One counted function evaluation at x, with its own noise draw.

        ``value`` is x's ``eval_f`` value when the caller already has it:
        the line search passes each row of a block evaluation this way, one
        call per trial it consumes, so the problem is not called again.
        Rows it never consumes never come here: they get no noise and no
        count (they are tallied in ``unused_f_rows``).
        """
        if value is None:
            value = self.problem.eval_f(x)
        self._last_f = (x, value)
        index = self.f_evals
        self.f_evals += 1
        eps = 0.0
        if self.spec.xi_f > 0.0 and self.noise_active():
            eps = float(self._stream(index, _TAG_F).uniform(-self.spec.xi_f, self.spec.xi_f))
        if abs(eps) > self.max_f_noise:
            self.max_f_noise = abs(eps)
        return value + eps

    def noisy_g(self, x: np.ndarray) -> np.ndarray:
        grad = self.problem.eval_g(x)
        self._recent_g.append((x, grad))
        index = self.g_evals
        self.g_evals += 1
        if self.spec.xi_g > 0.0 and self.noise_active():
            err = self._stream(index, _TAG_G).uniform(
                -self.spec.xi_g, self.spec.xi_g, size=grad.shape[0]
            )
            norm = float(np.linalg.norm(err))
            if norm > self.max_g_noise_norm:
                self.max_g_noise_norm = norm
            return grad + err
        return grad

    def true_f(self, x: np.ndarray) -> float:
        """The noiseless f at x, uncounted: the latest ``noisy_f`` call's
        value when its point has x's bits (a zero's sign included), else
        the problem's ``eval_f``."""
        last = self._last_f
        if last is not None and last[0].tobytes() == x.tobytes():
            return last[1]
        return self.problem.eval_f(x)

    def true_g(self, x: np.ndarray) -> np.ndarray:
        """The noiseless gradient at x, uncounted: that of the newest of the
        last four ``noisy_g`` calls whose point has x's bits, else the
        problem's ``eval_g``."""
        key = x.tobytes()
        for point, grad in reversed(self._recent_g):
            if point.tobytes() == key:
                return grad
        return self.problem.eval_g(x)

    def reported_bounds(self) -> tuple[float, float]:
        """(eps_f, eps_g) bounds handed to noise-aware methods.

        eps_f = xi_f and eps_g = omega * sqrt(d) * xi_g; omega != 1 models a
        mis-estimated gradient-noise level.
        """
        eps_f = self.spec.xi_f
        eps_g = self.spec.omega * math.sqrt(self.problem.dim) * self.spec.xi_g
        return eps_f, eps_g

    def true_bounds(self) -> tuple[float, float]:
        """Actual worst-case noise magnitudes (unscaled by omega), for
        benchmark stop rules and bound audits."""
        return self.spec.xi_f, math.sqrt(self.problem.dim) * self.spec.xi_g
