"""Two-phase Armijo-Wolfe line search with curvature-pair lengthening.

The noise-tolerant search runs an initial bisection phase testing three
conditions at each trial steplength, in order:

1. relaxed Armijo (sufficient decrease, with slack for noisy objectives),
2. a noise-control test requiring the observed directional-derivative
   change to clear the worst-case contribution of gradient noise,
3. the Wolfe curvature condition.

If the noise-control test cannot be met — the signature of iterates entering
the noise-dominated regime — the search splits: the steplength alpha is
chosen by relaxed-Armijo backtracking (reusing the best earlier trial when
one exists) while a separate lengthening parameter beta >= alpha is grown
until the noise-control condition holds, so the curvature pair fed to the
quasi-Newton update stays informative despite the noise.

With eps_g = 0 the noise machinery is off: relaxed Armijo is the classical
test (plus the 2 eps_f slack) whatever the sign of g.p, and the bisection
skips the noise-control test, whose threshold is then zero.  The plain
bisection Armijo-Wolfe search of the standard method variants is therefore
the same bisection at eps_f = eps_g = 0, capped at ``max_ls_iters`` trials
and never split.
"""

from __future__ import annotations

import enum
import math
import numbers
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .linalg import norm
from .noise import NoisyOracle

__all__ = [
    "LineSearchParams",
    "SearchMemory",
    "Phase",
    "LineSearchOutcome",
    "InitialResult",
    "relaxed_armijo",
    "noise_control_holds",
    "initial_phase",
    "split_phase",
    "two_phase_search",
    "armijo_wolfe_search",
]


@dataclass(frozen=True)
class LineSearchParams:
    """Parameters shared by both line searches.

    ``n_split`` caps the initial-phase trials before the search gives up and
    splits; ``max_ls_iters`` is the total function-trial budget across both
    phases (and the whole budget of the plain search); ``max_lengthening``
    caps gradient trials in the beta loop; ``history`` is the window of
    curvature estimates kept for seeding beta.
    """

    c1: float = 1e-4
    c2: float = 0.9
    c3: float = 0.5
    n_split: int = 30
    max_ls_iters: int = 60
    max_lengthening: int = 30
    history: int = 10

    def __post_init__(self):
        if not (0.0 < self.c1 < self.c2 < 1.0):
            raise ValueError("need 0 < c1 < c2 < 1")
        if not (math.isfinite(self.c3) and self.c3 > 0.0):
            raise ValueError("c3 must be finite and > 0")
        for name in ("n_split", "max_ls_iters", "max_lengthening", "history"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1")


class SearchMemory:
    """What a run's line searches carry from one iteration to the next.

    ``estimate`` is the most pessimistic (smallest) of the last ``history``
    curvature estimates ``observe`` kept, and seeds the initial beta of
    later split phases.  ``run_trials`` maps the factor of a trial run (0.5
    halving, 0.1 backtracking) to the trials the previous run of that kind
    took, from which the next one sizes its first block.
    """

    def __init__(self, history: int):
        if history < 1:
            raise ValueError("history must be >= 1")
        self._values: deque[float] = deque(maxlen=history)
        self.run_trials: dict[float, int] = {}

    @property
    def estimate(self) -> float | None:
        return min(self._values) if self._values else None

    def observe(
        self,
        beta: float,
        p: np.ndarray,
        g_new: np.ndarray,
        g_old: np.ndarray,
        wolfe_held: bool,
    ) -> None:
        """Keep an accepted lengthening step's curvature estimate
        mu = (g_new - g_old).p / (beta ||p||^2) when the Wolfe condition
        held, beta ||p||^2 > 0 (it is 0 for p = 0 or an underflowing p.p)
        and mu > 0."""
        scale = beta * float(p @ p)
        if not (wolfe_held and scale > 0.0):
            return
        mu = float((g_new - g_old) @ p) / scale
        if mu > 0.0:
            self._values.append(mu)


class Phase(enum.Enum):
    INITIAL_ACCEPTED = "initial_accepted"
    SPLIT_COMPLETED = "split_completed"
    ALPHA_FAILED = "alpha_failed"
    BETA_FAILED = "beta_failed"


@dataclass
class LineSearchOutcome:
    """Result of one line search.

    ``alpha`` is the steplength actually taken (0.0 when no trial satisfied
    the acceptance test); ``beta`` is the lengthening parameter for the
    curvature pair, present only when the noise-control condition was met.
    ``f_alpha``/``g_alpha`` carry evaluations made at ``x + alpha p`` during
    the search so the caller can reuse them for the next iterate: every
    outcome with alpha > 0 has ``f_alpha``, and ``g_alpha`` is None only
    where the alpha loop backtracked without a gradient; ``g_beta``
    is the gradient at ``x + beta p`` backing the pair.  Trial counts equal
    the oracle-counter deltas across the call.
    """

    alpha: float
    beta: float | None
    phase: Phase
    f_trials: int
    g_trials: int
    f_alpha: float | None = None
    g_alpha: np.ndarray | None = None
    g_beta: np.ndarray | None = None


@dataclass
class InitialResult:
    """State of one bisection along x + alpha p, handed on to the split phase.

    Holds the search's inputs with g.p and ||p|| computed once; the last
    trial (``alpha``, ``f_alpha``, and ``g_alpha`` when evaluated), which is
    the accepted step or the split trigger; the best relaxed-Armijo trial;
    and the trial counts so far.
    """

    x: np.ndarray
    p: np.ndarray
    f_x: float
    g_x: np.ndarray
    eps_f: float
    eps_g: float
    g_dot_p: float = field(init=False)
    p_norm: float = field(init=False)
    accepted: bool = False
    alpha: float = 1.0
    f_alpha: float | None = None
    g_alpha: np.ndarray | None = None
    alpha_best: float | None = None
    f_best: float | None = None
    g_best: np.ndarray | None = None
    f_trials: int = 0
    g_trials: int = 0

    def __post_init__(self):
        self.g_dot_p = float(self.g_x @ self.p)
        self.p_norm = norm(self.p)

    def outcome(self) -> LineSearchOutcome:
        """The search's result when it ends here: the accepted step with
        beta = alpha, or no step at all."""
        if not self.accepted:
            return LineSearchOutcome(
                alpha=0.0,
                beta=None,
                phase=Phase.ALPHA_FAILED,
                f_trials=self.f_trials,
                g_trials=self.g_trials,
            )
        return LineSearchOutcome(
            alpha=self.alpha,
            beta=self.alpha,
            phase=Phase.INITIAL_ACCEPTED,
            f_trials=self.f_trials,
            g_trials=self.g_trials,
            f_alpha=self.f_alpha,
            g_alpha=self.g_alpha,
            g_beta=self.g_alpha,
        )


def relaxed_armijo(
    i: int,
    f_new: float,
    f_old: float,
    g_dot_p: float,
    alpha: float,
    eps_f: float,
    eps_g: float,
    p_norm: float,
    c1: float,
) -> bool:
    """Sufficient-decrease test tolerant of bounded noise.

    The direction is treated as reliable when the observed slope clears the
    worst-case noise contribution (g.p < -eps_g ||p||), or when eps_g = 0:
    without gradient noise the classical test f_new <= f_old + c1 alpha g.p
    applies whatever the sign of g.p.  Otherwise plain decrease is required.
    From the second trial on (i >= 1), 2*eps_f of slack absorbs the
    worst-case error in comparing two noisy f values.  A non-finite f_new
    (NaN or either infinity) always fails.
    """
    if not math.isfinite(f_new):
        return False
    reliable = eps_g == 0.0 or g_dot_p < -eps_g * p_norm
    slack = 2.0 * eps_f if i >= 1 else 0.0
    if reliable:
        return f_new <= f_old + c1 * alpha * g_dot_p + slack
    return f_new < f_old + slack


def noise_control_holds(
    g_new: np.ndarray,
    g_old: np.ndarray,
    p: np.ndarray,
    p_norm: float,
    eps_g: float,
    c3: float,
    symmetric: bool,
) -> bool:
    """Does the observed curvature clear the gradient-noise floor?

    Tests (g_new - g_old).p >= 2 (1 + c3) eps_g ||p||, with ``p_norm`` the
    caller's ||p||; the symmetric form compares |.| instead and is what the
    initial phase checks (a sign flip there just means the trial step is too
    short, which the bisection can still fix).
    """
    change = float((g_new - g_old) @ p)
    threshold = 2.0 * (1.0 + c3) * eps_g * p_norm
    if symmetric:
        return abs(change) >= threshold
    return change >= threshold


# Rows in the first block of a run's first trial run of each kind.
_FIRST_BLOCK = 8


def _trial_run(
    oracle: NoisyOracle,
    memory: SearchMemory,
    state: InitialResult,
    alpha: float,
    factor: float,
    budget: int,
    c1: float,
) -> tuple[int, float, float | None, bool]:
    """Take trials at the fixed steplengths alpha, factor * alpha,
    factor * (factor * alpha), ... along ``state``'s line until one passes
    ``relaxed_armijo`` or ``budget`` of them are taken; return (trials
    taken, the last trial's alpha, its noisy f, whether it passed).

    Each trial's index in ``relaxed_armijo`` is its index in the whole
    search (``state.f_trials`` before the run).  On a problem with
    ``f_rows`` the points are evaluated ahead, a block of rows per
    ``eval_f`` call.  The first block holds as many rows as the previous
    run with this factor took (``memory.run_trials``, 8 before any), each
    later block twice as many, never past the budget.  Each row
    reaches ``noisy_f`` as its own counted evaluation only when the run
    takes it, so counts and noise draws are those of one trial at a time;
    rows evaluated after the first pass get neither.
    """
    x, p = state.x, state.p
    rows = oracle.problem.f_rows
    size = memory.run_trials.get(factor, _FIRST_BLOCK)
    first = i = state.f_trials
    last = i + budget
    a, f, passed = alpha, None, False
    while i < last and not passed:
        if rows:
            alphas = [alpha]
            for _ in range(min(size, last - i) - 1):
                alphas.append(factor * alphas[-1])
            points = x + np.array(alphas)[:, None] * p
            values = oracle.problem.eval_f(points).tolist()
            size *= 2
        else:
            alphas, points, values = [alpha], [x + alpha * p], [None]
        for a, point, value in zip(alphas, points, values):
            f = oracle.noisy_f(point, value)
            passed = relaxed_armijo(
                i, f, state.f_x, state.g_dot_p, a, state.eps_f, state.eps_g,
                state.p_norm, c1,
            )
            i += 1
            if passed:
                break
        alpha = factor * a
    if i > first:
        memory.run_trials[factor] = i - first
    return i - first, a, f, passed


def initial_phase(
    oracle: NoisyOracle,
    x: np.ndarray,
    p: np.ndarray,
    params: LineSearchParams,
    memory: SearchMemory,
    f_x: float,
    g_x: np.ndarray,
    eps_f: float,
    eps_g: float,
    max_trials: int | None = None,
) -> InitialResult:
    """The one bisection loop: from alpha = 1, test relaxed Armijo, noise
    control, then Wolfe.

    Accepts the first trial passing all three (beta = alpha).  A failed
    noise-control test, or ``max_trials`` trials (default ``n_split``), ends
    it unaccepted, and the two-phase search splits.  At eps_f = eps_g = 0 it
    is the plain Armijo-Wolfe bisection (see the module docstring).  A trial
    costs one function value, plus a gradient once it passes Armijo.

    Until a trial passes relaxed Armijo the steplengths halve from 1, a
    sequence fixed in advance, so those trials are one trial run (on a
    problem with ``f_rows``, a few block evaluations).  The bisection
    carries on from the run's first pass one trial at a time, its bracket
    [0, 2 alpha] (the halvings are exact powers of two) or [0, inf) when
    alpha = 1 passed.
    """
    state = InitialResult(x, p, f_x, g_x, eps_f, eps_g)
    trials = params.n_split if max_trials is None else max_trials
    taken, alpha, f_trial, armijo_ok = _trial_run(
        oracle, memory, state, 1.0, 0.5, trials, params.c1
    )
    state.f_trials = taken
    low, high = 0.0, 2.0 * alpha if taken > 1 else math.inf
    while True:
        state.alpha, state.f_alpha, state.g_alpha = alpha, f_trial, None
        if armijo_ok:
            g_trial = oracle.noisy_g(x + alpha * p)
            state.g_trials += 1
            state.g_alpha = g_trial
            if state.f_best is None or f_trial < state.f_best:
                state.alpha_best, state.f_best, state.g_best = alpha, f_trial, g_trial
            if eps_g != 0.0 and not noise_control_holds(
                g_trial, g_x, p, state.p_norm, eps_g, params.c3, symmetric=True
            ):
                return state
            if not float(g_trial @ p) < params.c2 * state.g_dot_p:
                state.accepted = True  # Wolfe holds (or g.p is NaN)
                return state
            low = alpha
            alpha = 2.0 * alpha if math.isinf(high) else 0.5 * (low + high)
        else:
            high = alpha
            alpha = 0.5 * (low + high)
        if state.f_trials >= trials:
            return state
        f_trial = oracle.noisy_f(x + alpha * p)
        armijo_ok = relaxed_armijo(
            state.f_trials, f_trial, f_x, state.g_dot_p, alpha, eps_f, eps_g,
            state.p_norm, params.c1,
        )
        state.f_trials += 1


def split_phase(
    oracle: NoisyOracle,
    params: LineSearchParams,
    memory: SearchMemory,
    init: InitialResult,
) -> LineSearchOutcome:
    """Decoupled steplength / lengthening search for the noisy regime,
    continuing the unaccepted bisection ``init``.

    The alpha loop reuses the best relaxed-Armijo trial when there is one;
    otherwise it backtracks from the last trial's steplength by factors of
    ten until one passes or the shared budget of ``max_ls_iters`` function
    trials runs out (alpha = 0 then; the beta loop still runs so the update
    can proceed without a step).  The backtracking steplengths are fixed in
    advance, so they are one trial run, which on a problem with ``f_rows``
    evaluates them in blocks, the first sized from the previous backtracking
    run in ``memory``; only the trials up to the first pass are counted.

    The beta loop grows beta from the last trial's steplength until the
    signed noise-control condition holds.  With a curvature estimate mu in
    ``memory`` the first candidate jumps to max(2 beta, beta_bar) where
    beta_bar = 2 (1 + c3) eps_g / (mu ||p||); without one, the start itself
    is tested first (with the bisection's gradient there, if any) and beta
    doubles on failure.  Trial counts cover the whole search.
    """
    x, p, g_x = init.x, init.p, init.g_x
    f_trials = init.f_trials
    g_trials = init.g_trials

    # --- alpha loop: pick the steplength by relaxed-Armijo backtracking ---
    alpha_ok = init.alpha_best is not None
    alpha, f_alpha, g_alpha = init.alpha, None, None
    if alpha_ok:
        alpha, f_alpha, g_alpha = init.alpha_best, init.f_best, init.g_best
    else:
        budget = params.max_ls_iters - f_trials
        taken, alpha, f_trial, alpha_ok = _trial_run(
            oracle, memory, init, init.alpha, 0.1, budget, params.c1
        )
        f_trials += taken
        if alpha_ok:
            f_alpha = f_trial
    if not alpha_ok:
        alpha = 0.0

    # --- beta loop: lengthen until the signed noise-control test holds ---
    beta = init.alpha
    estimate = memory.estimate
    beta_bar = None
    g_beta = init.g_alpha
    if estimate is not None and init.p_norm > 0.0:
        beta_bar = 2.0 * (1.0 + params.c3) * init.eps_g / (estimate * init.p_norm)
        beta = max(2.0 * beta, beta_bar)
        g_beta = None
    beta_ok = False
    lengthenings = 0
    while True:
        if g_beta is None:
            if lengthenings >= params.max_lengthening:
                break
            g_beta = oracle.noisy_g(x + beta * p)
            g_trials += 1
            lengthenings += 1
        if noise_control_holds(
            g_beta, g_x, p, init.p_norm, init.eps_g, params.c3, symmetric=False
        ):
            beta_ok = True
            break
        beta = max(2.0 * beta, beta_bar) if beta_bar is not None else 2.0 * beta
        g_beta = None

    if not alpha_ok:
        phase = Phase.ALPHA_FAILED
    elif not beta_ok:
        phase = Phase.BETA_FAILED
    else:
        phase = Phase.SPLIT_COMPLETED
    return LineSearchOutcome(
        alpha=alpha,
        beta=beta if beta_ok else None,
        phase=phase,
        f_trials=f_trials,
        g_trials=g_trials,
        f_alpha=f_alpha,
        g_alpha=g_alpha,
        g_beta=g_beta if beta_ok else None,
    )


def two_phase_search(
    oracle: NoisyOracle,
    x: np.ndarray,
    p: np.ndarray,
    params: LineSearchParams,
    memory: SearchMemory,
    f_x: float,
    g_x: np.ndarray,
    eps_f: float,
    eps_g: float,
) -> LineSearchOutcome:
    """Run the initial phase and, if it hands off, the split phase.

    Whatever lengthening step gets accepted is observed by ``memory``,
    gated on the Wolfe condition holding there (noise control always holds
    at an accepted lengthening step).
    """
    init = initial_phase(oracle, x, p, params, memory, f_x, g_x, eps_f, eps_g)
    if init.accepted:
        memory.observe(init.alpha, p, init.g_alpha, g_x, True)
        return init.outcome()
    out = split_phase(oracle, params, memory, init)
    if out.beta is not None:
        wolfe = float(out.g_beta @ p) >= params.c2 * init.g_dot_p
        memory.observe(out.beta, p, out.g_beta, g_x, wolfe)
    return out


def armijo_wolfe_search(
    oracle: NoisyOracle,
    x: np.ndarray,
    p: np.ndarray,
    params: LineSearchParams,
    memory: SearchMemory,
    f_x: float,
    g_x: np.ndarray,
) -> LineSearchOutcome:
    """Plain bisection Armijo-Wolfe search on the (possibly noisy) oracle.

    This is the classical search used by the standard method variants: the
    initial phase at zero noise bounds, capped at ``max_ls_iters`` trials,
    with no split and pairs built at beta = alpha.  Fails (alpha = 0) when
    no trial satisfies both conditions; ``memory`` sizes its trial blocks.
    """
    return initial_phase(
        oracle, x, p, params, memory, f_x, g_x, 0.0, 0.0, max_trials=params.max_ls_iters
    ).outcome()
