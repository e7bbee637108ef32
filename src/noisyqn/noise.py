"""Bounded uniform noise injection for function and gradient oracles.

Every evaluation draws its noise from a counter-based stream keyed by
(seed, evaluation index), with coordinates consumed in order from that
stream.  Replaying the same seed and call sequence therefore reproduces the
exact same values regardless of wall clock, thread, or process — which is
what makes parallel sweeps bit-identical to serial ones.

Draw ``index`` of the stream tagged ``tag`` (0 for f, 1 for g) is read from
Philox counter [index, tag, 0, 0], one noise value per word and four words
per counter value; ``NoisyOracle._draw`` is the only place that applies
this layout.  So the stream at [index, tag, 0, 0] holds every later draw of
that tag too, draw index + j starting at its word 4 j.  Function draws take
one word and do not overlap.  Gradient draws overlap, a known defect: draw
k + 1 repeats draw k's coordinates 4, 5, ... in positions 0, 1, ..., so at
d = 100 the gradient noise of up to 25 consecutive evaluations is
correlated.

Draws are made ahead, in chunks.  Each stream keeps one chunk of
``4 * 256 + width`` noise values, drawn with a single
``uniform(-xi, xi, size)`` call from a generator built for the first index
it covers, and draw j of the chunk is ``chunk[4 j : 4 j + width]``: numpy
computes every value as ``low + (high - low) * u`` from one word, alone or
in an array, so these are the bits of a fresh generator per draw.  An index
outside the chunk (the next 256, or a jump over a clean block of the
intermittent schedule) draws a new chunk from a new generator at its own
counter.  No generator state lives between chunks.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from .linalg import norm
from .problems import Problem, integer_setting, real_setting

__all__ = ["NoiseSpec", "NoisyOracle"]

Schedule = Literal["constant", "intermittent"]
NoisePhase = Literal["noisy", "clean"]

# Draws covered by one chunk of a stream (see the module docstring).
_CHUNK_DRAWS = 256

# Evaluations of each stream remembered for ``true_f`` and ``true_g``: the
# tolerant variants' beta loop evaluates g after the accepted point, which
# four cover.
_RECALL_DEPTH = 4


class _Stream:
    """One stream's chunk of draws and the first index it covers."""

    __slots__ = ("tag", "base", "chunk")

    def __init__(self, tag: int):
        self.tag, self.base, self.chunk = tag, -_CHUNK_DRAWS, np.empty(0)


@dataclass(frozen=True)
class NoiseSpec:
    """How noise is injected into a problem's oracles.

    xi_f and xi_g are the half-widths of the uniform errors added to f and
    to each gradient coordinate.  With the "intermittent" schedule the noise
    toggles on and off every ``n_noise`` iterations, and ``noise_phase``
    ("noisy" or "clean") is the state of its first block; the constant
    schedule takes no ``n_noise``.  ``omega`` scales only the *reported*
    gradient-noise bound handed to noise-aware methods, never the injected
    noise itself.  ``seed`` is the Philox key, in [0, 2**128).
    """

    xi_f: float = 0.0
    xi_g: float = 0.0
    schedule: Schedule = "constant"
    n_noise: int | None = None
    noise_phase: NoisePhase = "noisy"
    seed: int = 0
    omega: float = 1.0

    def __post_init__(self):
        for name, strict in (("xi_f", False), ("xi_g", False), ("omega", True)):
            object.__setattr__(self, name, real_setting(name, getattr(self, name), 0.0, strict))
        for name, kind in (("schedule", Schedule), ("noise_phase", NoisePhase)):
            if getattr(self, name) not in get_args(kind):
                raise ValueError(f"{name} must be one of {get_args(kind)}")
        object.__setattr__(self, "seed", integer_setting("seed", self.seed))
        if not 0 <= self.seed < 2**128:
            raise ValueError(f"seed must be in [0, 2**128), got {self.seed!r}")
        if self.n_noise is not None:
            object.__setattr__(self, "n_noise", integer_setting("n_noise", self.n_noise))
            if self.schedule == "constant":
                raise ValueError("n_noise is only for the intermittent schedule")
        if self.schedule == "intermittent" and (self.n_noise is None or self.n_noise < 1):
            raise ValueError("intermittent schedule needs n_noise >= 1")


class NoisyOracle:
    """Wraps a problem with seeded, bounded, per-call noise.

    The solver advances ``set_iteration`` so the intermittent schedule can
    resolve whether noise is active.  ``f_evals`` / ``g_evals`` each grow by
    exactly one per call.  ``max_f_noise`` and ``max_g_noise_norm`` track the
    largest injected errors actually seen, for bound auditing.

    ``true_f`` and ``true_g`` give the noiseless values at a point for the
    solver's trace.  The oracle remembers the point and noiseless value of
    its last four ``noisy_f`` and last four ``noisy_g`` calls, and answers
    from them when a point has exactly the bits asked for.  It keeps
    references, not copies, to the arrays it is handed and returns: neither
    the caller nor the problem may change them in place afterwards.
    """

    def __init__(self, problem: Problem, spec: NoiseSpec):
        self.problem = problem
        self.spec = spec
        self.set_iteration(0)
        self.f_evals = 0
        self.g_evals = 0
        self.max_f_noise = 0.0
        self.max_g_noise_norm = 0.0
        self._recent_f: deque[tuple[np.ndarray, float]] = deque(maxlen=_RECALL_DEPTH)
        self._recent_g: deque[tuple[np.ndarray, np.ndarray]] = deque(maxlen=_RECALL_DEPTH)
        # Tags 0 and 1 keep f and g draws on disjoint counters.
        self._f_stream, self._g_stream = _Stream(0), _Stream(1)

    def set_iteration(self, k: int) -> None:
        self.iteration = k
        # The levels drawn from iteration k on: zero in a clean block.
        active = self.noise_active()
        self._xi_f = self.spec.xi_f if active else 0.0
        self._xi_g = self.spec.xi_g if active else 0.0

    def noise_active(self) -> bool:
        spec = self.spec
        if spec.schedule == "constant":
            return True
        block = self.iteration // spec.n_noise
        return (block % 2 == 0) == (spec.noise_phase == "noisy")

    def _draw(self, stream: _Stream, index: int, xi: float, width: int) -> tuple[np.ndarray, int]:
        """``stream``'s chunk and the offset in it of draw ``index``, whose
        ``width`` values start there (see the module docstring).  A chunk
        that does not cover index is first replaced by one drawn from a
        fresh generator at counter [index, tag, 0, 0]."""
        j = index - stream.base
        if not 0 <= j < _CHUNK_DRAWS:
            bits = np.random.Philox(key=self.spec.seed, counter=[index, stream.tag, 0, 0])
            stream.chunk = np.random.Generator(bits).uniform(-xi, xi, 4 * _CHUNK_DRAWS + width)
            stream.base, j = index, 0
        return stream.chunk, 4 * j

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
        self._recent_f.append((x, value))
        index = self.f_evals
        self.f_evals += 1
        xi = self._xi_f
        if xi > 0.0:
            chunk, at = self._draw(self._f_stream, index, xi, 1)
            eps = chunk.item(at)
            if abs(eps) > self.max_f_noise:
                self.max_f_noise = abs(eps)
            return value + eps
        return value + 0.0  # no noise adds +0.0 too: a -0.0 value reads 0.0

    def noisy_g(self, x: np.ndarray) -> np.ndarray:
        grad = self.problem.eval_g(x)
        self._recent_g.append((x, grad))
        index = self.g_evals
        self.g_evals += 1
        xi = self._xi_g
        if xi > 0.0:
            width = grad.shape[0]
            chunk, at = self._draw(self._g_stream, index, xi, width)
            err = chunk[at : at + width]
            err_norm = norm(err)
            if err_norm > self.max_g_noise_norm:
                self.max_g_noise_norm = err_norm
            return grad + err
        return grad

    @staticmethod
    def _recall(recent: deque, x: np.ndarray, evaluate):
        """The noiseless value at x, uncounted: that of the newest of the
        ``recent`` (point, value) pairs whose point has x's bits (a zero's
        sign included), else ``evaluate(x)``."""
        key = x.tobytes()
        for point, value in reversed(recent):
            if point.tobytes() == key:
                return value
        return evaluate(x)

    def true_f(self, x: np.ndarray) -> float:
        """The noiseless f at x, uncounted (see ``_recall``)."""
        return self._recall(self._recent_f, x, self.problem.eval_f)

    def true_g(self, x: np.ndarray) -> np.ndarray:
        """The noiseless gradient at x, uncounted (see ``_recall``)."""
        return self._recall(self._recent_g, x, self.problem.eval_g)

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
