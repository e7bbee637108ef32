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
skips the noise-control test, whose threshold is then zero.  With no noise
bound at all (eps_f = eps_g = 0) the search never splits: the bisection
takes up to ``max_ls_iters`` trials and fails when none is accepted.  That
is the plain Armijo-Wolfe search of the standard method variants, so on a
noiseless oracle the noise-tolerant variants are the standard ones.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .linalg import norm
from .noise import NoisyOracle
from .problems import integer_setting, real_setting

__all__ = [
    "LineSearchParams",
    "SearchMemory",
    "Phase",
    "LineSearchOutcome",
    "two_phase_search",
]


@dataclass(frozen=True)
class LineSearchParams:
    """Parameters of the line search.

    ``n_split`` caps the initial-phase trials of a search with a noise
    bound before it gives up and splits; ``max_ls_iters`` is the total
    function-trial budget across both phases (and the whole budget of a
    search without a noise bound); ``max_lengthening`` caps gradient trials
    in the beta loop; ``history`` is the window of curvature estimates kept
    for seeding beta.

    ``n_split`` and ``max_ls_iters`` are at most 300, so no trial steplength
    falls below about 1e-299, a normal float: 2^-299 by halving, 0.1^299 by
    backtracking, and any mix of the two lies between.  A longer budget could
    halve alpha to 0.0, where the classical Armijo test holds on any f.
    """

    c1: float = 1e-4
    c2: float = 0.9
    c3: float = 0.5
    n_split: int = 30
    max_ls_iters: int = 60
    max_lengthening: int = 30
    history: int = 10

    def __post_init__(self):
        for name, low in (("c1", None), ("c2", None), ("c3", 0.0)):
            value = real_setting(name, getattr(self, name), low, strict=True)
            object.__setattr__(self, name, value)
        if not (0.0 < self.c1 < self.c2 < 1.0):
            raise ValueError("need 0 < c1 < c2 < 1")
        for name in ("n_split", "max_ls_iters", "max_lengthening", "history"):
            high = 300 if name in ("n_split", "max_ls_iters") else None
            object.__setattr__(self, name, integer_setting(name, getattr(self, name), 1, high))


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
    """One line search along x + alpha p, from its first trial to its result.

    Holds the search's inputs with g.p, ||p|| and the direction's
    reliability computed once; the last trial (``alpha``, ``f_alpha``, and
    ``g_alpha`` when evaluated); the best relaxed-Armijo trial
    (``alpha_best``, ``f_best``, ``g_best``), which the split phase may
    reuse; and the trial counts, which equal the oracle-counter deltas
    across the search.  ``armijo`` and ``noise_control`` are the paper's
    two tests of a trial against the search's inputs.

    ``phase`` is None while the search runs, and set when it ends;
    ``split`` says whether the split phase ran.  Then ``alpha`` is the
    steplength taken: 0.0 when the phase is ``ALPHA_FAILED``, positive
    otherwise.  ``f_alpha``/``g_alpha`` are evaluations at
    ``x + alpha p`` the caller can reuse for the next iterate: every result
    with alpha > 0 has ``f_alpha``, and ``g_alpha`` is None only where the
    alpha loop backtracked without a gradient.  ``beta`` is the lengthening
    parameter for the curvature pair and ``g_beta`` the gradient at
    ``x + beta p`` backing it, both present only when the noise-control
    condition was met; ``INITIAL_ACCEPTED`` has beta = alpha and
    g_beta = g_alpha.
    """

    x: np.ndarray
    p: np.ndarray
    f_x: float
    g_x: np.ndarray
    eps_f: float
    eps_g: float
    g_dot_p: float = field(init=False)
    p_norm: float = field(init=False)
    reliable: bool = field(init=False)
    phase: Phase | None = None
    split: bool = False
    alpha: float = 1.0
    beta: float | None = None
    f_alpha: float | None = None
    g_alpha: np.ndarray | None = None
    g_beta: np.ndarray | None = None
    alpha_best: float | None = None
    f_best: float | None = None
    g_best: np.ndarray | None = None
    f_trials: int = 0
    g_trials: int = 0

    def __post_init__(self):
        self.g_dot_p = float(self.g_x @ self.p)
        self.p_norm = norm(self.p)
        # The observed slope clears the worst-case gradient noise, or there
        # is no gradient noise.
        self.reliable = self.eps_g == 0.0 or self.g_dot_p < -self.eps_g * self.p_norm

    def armijo(self, i: int, f_new: float, alpha: float, c1: float) -> bool:
        """Relaxed Armijo: the sufficient-decrease test of the trial
        f_new = f(x + alpha p), tolerant of bounded noise.

        Along a ``reliable`` direction the classical test
        f_new <= f_x + c1 alpha g.p applies (at eps_g = 0 whatever the sign
        of g.p); otherwise plain decrease is required.  From the search's
        second trial on (i >= 1), 2 eps_f of slack absorbs the worst-case
        error in comparing two noisy f values.  A non-finite f_new (NaN or
        either infinity) always fails.
        """
        if not math.isfinite(f_new):
            return False
        slack = 2.0 * self.eps_f if i >= 1 else 0.0
        if self.reliable:
            return f_new <= self.f_x + c1 * alpha * self.g_dot_p + slack
        return f_new < self.f_x + slack

    def noise_control(self, g_new: np.ndarray, c3: float, symmetric: bool) -> bool:
        """Does the observed curvature clear the gradient-noise floor?

        Tests (g_new - g_x).p >= 2 (1 + c3) eps_g ||p||; the symmetric form
        compares |.| instead and is what the initial phase checks (a sign
        flip there just means the trial step is too short, which the
        bisection can still fix).
        """
        change = float((g_new - self.g_x) @ self.p)
        threshold = 2.0 * (1.0 + c3) * self.eps_g * self.p_norm
        if symmetric:
            return abs(change) >= threshold
        return change >= threshold


# Rows in the first block of a run's first trial run of each kind.
_FIRST_BLOCK = 8


def _trial_run(
    oracle: NoisyOracle,
    memory: SearchMemory,
    search: LineSearchOutcome,
    alpha: float,
    factor: float,
    budget: int,
    c1: float,
) -> tuple[float, float | None, bool]:
    """Take trials at the fixed steplengths alpha, factor * alpha,
    factor * (factor * alpha), ... along ``search``'s line until one passes
    ``search.armijo`` or ``budget`` of them are taken, adding them to
    ``search.f_trials``; return (the last trial's alpha, its noisy f,
    whether it passed).

    Each trial's index in ``search.armijo`` is its index in the whole
    search (``search.f_trials`` before the run).  On a problem with
    ``f_rows`` the points are evaluated ahead, a block of rows per
    ``eval_f`` call.  The first block holds as many rows as the previous
    run with this factor took (``memory.run_trials``, 8 before any), each
    later block twice as many, never past the budget.  Each row
    reaches ``noisy_f`` as its own counted evaluation only when the run
    takes it, so counts and noise draws are those of one trial at a time;
    rows evaluated after the first pass get neither.
    """
    x, p = search.x, search.p
    rows = oracle.problem.f_rows
    size = memory.run_trials.get(factor, _FIRST_BLOCK)
    first = i = search.f_trials
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
            passed = search.armijo(i, f, a, c1)
            i += 1
            if passed:
                break
        alpha = factor * a
    if i > first:
        memory.run_trials[factor] = i - first
    search.f_trials = i
    return a, f, passed


def initial_phase(
    oracle: NoisyOracle,
    params: LineSearchParams,
    memory: SearchMemory,
    search: LineSearchOutcome,
) -> LineSearchOutcome:
    """Run the one bisection loop of a new ``search`` along x + alpha p,
    with its x, p and noise bounds: from alpha = 1, test relaxed Armijo,
    noise control, then Wolfe.  Returns ``search``.

    Ends ``INITIAL_ACCEPTED`` at the first trial passing all three, with
    beta = alpha and g_beta = g_alpha.  With a noise bound (eps_f > 0 or
    eps_g > 0), a failed noise-control test or ``n_split`` trials leave
    the search running (phase None) at its last trial, for ``split_phase``.
    Without one, ``max_ls_iters`` trials end it ``ALPHA_FAILED``
    (alpha = 0, no f_alpha or g_alpha): the plain search.  A trial costs
    one function value, plus a gradient once it passes Armijo.

    Until a trial passes relaxed Armijo the steplengths halve from 1, a
    sequence fixed in advance, so those trials are one trial run (on a
    problem with ``f_rows``, a few block evaluations).  The bisection
    carries on from the run's first pass one trial at a time, its bracket
    [0, 2 alpha] (the halvings are exact powers of two) or [0, inf) when
    alpha = 1 passed.
    """
    x, p = search.x, search.p
    noisy = search.eps_f > 0.0 or search.eps_g > 0.0
    trials = params.n_split if noisy else params.max_ls_iters
    alpha, f_trial, armijo_ok = _trial_run(oracle, memory, search, 1.0, 0.5, trials, params.c1)
    low, high = 0.0, 2.0 * alpha if search.f_trials > 1 else math.inf
    while True:
        search.alpha, search.f_alpha, search.g_alpha = alpha, f_trial, None
        if armijo_ok:
            g_trial = oracle.noisy_g(x + alpha * p)
            search.g_trials += 1
            search.g_alpha = g_trial
            if search.f_best is None or f_trial < search.f_best:
                search.alpha_best, search.f_best, search.g_best = alpha, f_trial, g_trial
            if search.eps_g != 0.0 and not search.noise_control(g_trial, params.c3, symmetric=True):
                return search
            if not float(g_trial @ p) < params.c2 * search.g_dot_p:
                # Wolfe holds (or g.p is NaN)
                search.phase = Phase.INITIAL_ACCEPTED
                search.beta, search.g_beta = alpha, g_trial
                return search
            low = alpha
            alpha = 2.0 * alpha if math.isinf(high) else 0.5 * (low + high)
        else:
            high = alpha
            alpha = 0.5 * (low + high)
        if search.f_trials >= trials:
            if not noisy:
                search.phase = Phase.ALPHA_FAILED
                search.alpha, search.f_alpha, search.g_alpha = 0.0, None, None
            return search
        f_trial = oracle.noisy_f(x + alpha * p)
        armijo_ok = search.armijo(search.f_trials, f_trial, alpha, params.c1)
        search.f_trials += 1


def split_phase(
    oracle: NoisyOracle,
    params: LineSearchParams,
    memory: SearchMemory,
    search: LineSearchOutcome,
) -> LineSearchOutcome:
    """Decoupled steplength / lengthening search for the noisy regime,
    ending the running ``search`` that the bisection left unaccepted, and
    marking it ``split``.

    The alpha loop reuses the best relaxed-Armijo trial when there is one;
    otherwise it backtracks from the last trial's steplength by factors of
    ten until one passes or the shared budget of ``max_ls_iters`` function
    trials runs out (alpha = 0 then; the beta loop still runs so the update
    can proceed without a step).  The backtracking steplengths are fixed in
    advance, so they are one trial run, which on a problem with ``f_rows``
    evaluates them in blocks, the first sized from the previous backtracking
    run in ``memory``; only the trials up to the first pass are counted.

    The beta loop starts at the last trial's steplength, first testing the
    bisection's gradient there when there is one.  With a curvature
    estimate mu in ``memory`` it jumps to max(2 beta, beta_bar) instead,
    where beta_bar = 2 (1 + c3) eps_g / (mu ||p||).  Then beta doubles until
    the signed noise-control condition holds, for at most
    ``max_lengthening`` gradient evaluations.  Sets the phase and the result
    fields on ``search``, whose trial counts go on covering the whole
    search, and returns it.
    """
    search.split = True
    x, p = search.x, search.p
    # Both loops start from the last trial: its steplength and gradient.
    beta, g_beta = search.alpha, search.g_alpha

    # --- alpha loop: pick the steplength by relaxed-Armijo backtracking ---
    alpha_ok = search.alpha_best is not None
    if alpha_ok:
        search.alpha, search.f_alpha, search.g_alpha = (
            search.alpha_best, search.f_best, search.g_best
        )
    else:
        budget = params.max_ls_iters - search.f_trials
        alpha, f_trial, alpha_ok = _trial_run(
            oracle, memory, search, beta, 0.1, budget, params.c1
        )
        search.alpha, search.f_alpha, search.g_alpha = (
            (alpha, f_trial, None) if alpha_ok else (0.0, None, None)
        )

    # --- beta loop: lengthen until the signed noise-control test holds ---
    estimate = memory.estimate
    if estimate is not None and search.p_norm > 0.0:
        beta_bar = 2.0 * (1.0 + params.c3) * search.eps_g / (estimate * search.p_norm)
        beta, g_beta = max(2.0 * beta, beta_bar), None
    beta_ok = g_beta is not None and search.noise_control(g_beta, params.c3, symmetric=False)
    for _ in range(params.max_lengthening):
        if beta_ok:
            break
        if g_beta is not None:
            beta *= 2.0
        g_beta = oracle.noisy_g(x + beta * p)
        search.g_trials += 1
        beta_ok = search.noise_control(g_beta, params.c3, symmetric=False)

    if beta_ok:
        search.beta, search.g_beta = beta, g_beta
    if not alpha_ok:
        search.phase = Phase.ALPHA_FAILED
    elif not beta_ok:
        search.phase = Phase.BETA_FAILED
    else:
        search.phase = Phase.SPLIT_COMPLETED
    return search


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
    """The line search every variant runs: build the search once, run
    ``initial_phase`` on it and, if it hands off (only with a noise bound),
    ``split_phase``.  At zero bounds it is the plain Armijo-Wolfe search.

    Only with a noise bound is the accepted lengthening step observed by
    ``memory``, gated on the Wolfe condition holding there (noise control
    always holds at an accepted lengthening step, and the initial phase
    accepts only where Wolfe holds).
    """
    search = LineSearchOutcome(x, p, f_x, g_x, eps_f, eps_g)
    initial_phase(oracle, params, memory, search)
    if search.phase is None:
        split_phase(oracle, params, memory, search)
    if search.beta is not None and (eps_f > 0.0 or eps_g > 0.0):
        wolfe = search.phase is Phase.INITIAL_ACCEPTED or (
            float(search.g_beta @ p) >= params.c2 * search.g_dot_p
        )
        memory.observe(search.beta, p, search.g_beta, g_x, wolfe)
    return search


def armijo_wolfe_search(
    oracle: NoisyOracle,
    x: np.ndarray,
    p: np.ndarray,
    params: LineSearchParams,
    memory: SearchMemory,
    f_x: float,
    g_x: np.ndarray,
) -> LineSearchOutcome:
    """``two_phase_search`` at zero bounds, unexported and uncalled: kept
    only under the name that ``perfbench/tracing.py`` patches in ``solver``."""
    return initial_phase(oracle, params, memory, LineSearchOutcome(x, p, f_x, g_x, 0.0, 0.0))
