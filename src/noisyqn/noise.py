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

Draws are made ahead, in chunks.  A stream read from counter [index, tag,
0, 0] holds every later draw of that tag too: draw index + j starts at its
word 4 j, since each counter value gives four words.  So each tag keeps one
chunk of ``4 * 256 + width`` noise values, drawn with a single
``uniform(-xi, xi, size)`` call from a generator built for the first index
it covers, and draw j of the chunk is ``chunk[4 j : 4 j + width]``: numpy
computes every value as ``low + (high - low) * u`` from one word, alone or
in an array, so these are the bits of a fresh generator per draw.  An
index outside the chunk (the next 256, or a jump over a clean block of the
intermittent schedule) draws a new chunk from a new generator at its own
counter.  No generator state lives between chunks.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from .linalg import norm
from .problems import Problem

__all__ = ["NoiseSpec", "NoisyOracle"]

Schedule = Literal["constant", "intermittent"]
NoisePhase = Literal["noisy", "clean"]

# Stream tags keep function and gradient draws on disjoint counters.
_TAG_F = 0
_TAG_G = 1

# Draws covered by one chunk of a stream (see the module docstring).
_CHUNK_DRAWS = 256

# Gradient evaluations remembered for ``true_g``: the tolerant variants'
# beta loop evaluates g after the accepted point, which four cover.
_G_HISTORY = 4


@dataclass(frozen=True)
class NoiseSpec:
    """How noise is injected into a problem's oracles.

    xi_f and xi_g are the half-widths of the uniform errors added to f and
    to each gradient coordinate.  With the "intermittent" schedule the noise
    toggles on and off every ``n_noise`` iterations, and ``noise_phase``
    ("noisy" or "clean") is the state of its first block.  ``omega`` scales
    only the *reported* gradient-noise bound handed to noise-aware methods,
    never the injected noise itself.  ``seed`` is the Philox key, in [0, 2**128).
    """

    xi_f: float = 0.0
    xi_g: float = 0.0
    schedule: Schedule = "constant"
    n_noise: int | None = None
    noise_phase: NoisePhase = "noisy"
    seed: int = 0
    omega: float = 1.0

    def __post_init__(self):
        for name in ("xi_f", "xi_g", "omega"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if not (math.isfinite(self.xi_f) and self.xi_f >= 0.0):
            raise ValueError("xi_f must be finite and >= 0")
        if not (math.isfinite(self.xi_g) and self.xi_g >= 0.0):
            raise ValueError("xi_g must be finite and >= 0")
        for name, kind in (("schedule", Schedule), ("noise_phase", NoisePhase)):
            if getattr(self, name) not in get_args(kind):
                raise ValueError(f"{name} must be one of {get_args(kind)}")
        # bool is an Integral: True would key the same noise as 1, and is no
        # block length.
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if not 0 <= self.seed < 2**128:
            raise ValueError(f"seed must be in [0, 2**128), got {self.seed!r}")
        if self.n_noise is not None and (
            isinstance(self.n_noise, bool) or not isinstance(self.n_noise, numbers.Integral)
        ):
            raise ValueError(f"n_noise must be an integer, got {self.n_noise!r}")
        if self.schedule == "intermittent" and (self.n_noise is None or self.n_noise < 1):
            raise ValueError("intermittent schedule needs n_noise >= 1")
        if not (math.isfinite(self.omega) and self.omega > 0.0):
            raise ValueError("omega must be finite and > 0")


class NoisyOracle:
    """Wraps a problem with seeded, bounded, per-call noise.

    The solver advances ``set_iteration`` so the intermittent schedule can
    resolve whether noise is active.  ``f_evals`` / ``g_evals`` each grow by
    exactly one per call.  ``max_f_noise`` and ``max_g_noise_norm`` track the
    largest injected errors actually seen, for bound auditing.

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
        self.max_f_noise = 0.0
        self.max_g_noise_norm = 0.0
        self._last_f: tuple[np.ndarray, float] | None = None
        self._recent_g: deque[tuple[np.ndarray, np.ndarray]] = deque(maxlen=_G_HISTORY)
        # Per tag, the first index its chunk covers and the chunk; the f
        # chunk keeps only its draws' values, as Python floats.
        self._f_base, self._f_chunk = -_CHUNK_DRAWS, []
        self._g_base, self._g_chunk = -_CHUNK_DRAWS, np.empty(0)

    def set_iteration(self, k: int) -> None:
        self.iteration = k

    def noise_active(self) -> bool:
        spec = self.spec
        if spec.schedule == "constant":
            return True
        block = self.iteration // spec.n_noise
        return (block % 2 == 0) == (spec.noise_phase == "noisy")

    def _chunk(self, index: int, tag: int, xi: float, width: int) -> np.ndarray:
        """The noise of draws index, index + 1, ... (see the module
        docstring), from a fresh stream at counter [index, tag, 0, 0]."""
        bits = np.random.Philox(key=self.spec.seed, counter=[index, tag, 0, 0])
        return np.random.Generator(bits).uniform(-xi, xi, 4 * _CHUNK_DRAWS + width)

    def noisy_f(self, x: np.ndarray, value: float | None = None) -> float:
        """One counted function evaluation at x, with its own noise draw.

        ``value`` is x's ``eval_f`` value when the caller already has it:
        the line search passes each row of a block evaluation this way, one
        call per trial it consumes, so the problem is not called again.
        Rows it never consumes never come here: they get no noise and no
        count.
        """
        if value is None:
            value = self.problem.eval_f(x)
        self._last_f = (x, value)
        index = self.f_evals
        self.f_evals += 1
        xi = self.spec.xi_f
        if xi > 0.0 and self.noise_active():
            j = index - self._f_base
            if not 0 <= j < _CHUNK_DRAWS:
                self._f_base, j = index, 0
                self._f_chunk = self._chunk(index, _TAG_F, xi, 1)[::4].tolist()
            eps = self._f_chunk[j]
            if abs(eps) > self.max_f_noise:
                self.max_f_noise = abs(eps)
            return value + eps
        return value + 0.0  # no noise adds +0.0 too: a -0.0 value reads 0.0

    def noisy_g(self, x: np.ndarray) -> np.ndarray:
        grad = self.problem.eval_g(x)
        self._recent_g.append((x, grad))
        index = self.g_evals
        self.g_evals += 1
        xi = self.spec.xi_g
        if xi > 0.0 and self.noise_active():
            width = grad.shape[0]
            j = index - self._g_base
            if not 0 <= j < _CHUNK_DRAWS:
                self._g_base, j = index, 0
                self._g_chunk = self._chunk(index, _TAG_G, xi, width)
            err = self._g_chunk[4 * j : 4 * j + width]
            err_norm = norm(err)
            if err_norm > self.max_g_noise_norm:
                self.max_g_noise_norm = err_norm
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
