"""Quasi-Newton driver: six method variants over a noisy oracle.

Variants: dense BFGS and limited-memory L-BFGS, each in three flavors —
standard (always update), update-skipping (drop pairs whose observed
curvature is below the noise floor), and noise-tolerant (two-phase line
search with curvature-pair lengthening).  Without a noise bound that search
never splits, so on a noiseless oracle a noise-tolerant variant is its
standard twin.

The per-iteration trace records true objective values for benchmarking,
never visible to the method itself.  They are the noiseless values behind
the oracle's recent evaluations at the iterate when there is one
(``NoisyOracle.true_f``/``true_g``), else computed on the problem; both
give the same bits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .linalg import (
    CurvaturePair,
    LimitedMemory,
    SymmetricMatrix,
    bfgs_inverse_update,
    eigen_extremes,
    norm,
    two_loop_direction,
)
from .linesearch import (
    LineSearchOutcome,
    LineSearchParams,
    SearchMemory,
    two_phase_search,
)
from .noise import NoiseSpec, NoisyOracle
from .problems import Problem, integer_setting

__all__ = [
    "Variant",
    "SolverConfig",
    "IterationRecord",
    "IterationContext",
    "RunTrace",
    "skip_condition",
    "run",
]

# Uncalled: the plain search's old name, which perfbench/tracing.py patches.
armijo_wolfe_search = two_phase_search

# Every variant drops a pair whose s.y is not above this share of ||s|| ||y||,
# or whose ||y|| is 0, to protect the update.
_CURVATURE_GUARD = 1e-12


class NumericalFailureError(RuntimeError):
    """A non-finite direction or iterate was produced."""


class Variant(str, enum.Enum):
    BFGS = "bfgs"
    LBFGS = "lbfgs"
    BFGS_SKIP = "bfgs-skip"
    LBFGS_SKIP = "lbfgs-skip"
    BFGS_E = "bfgs-e"
    LBFGS_E = "lbfgs-e"

    @property
    def limited_memory(self) -> bool:
        return self in (Variant.LBFGS, Variant.LBFGS_SKIP, Variant.LBFGS_E)

    @property
    def noise_tolerant(self) -> bool:
        return self in (Variant.BFGS_E, Variant.LBFGS_E)

    @property
    def update_skipping(self) -> bool:
        return self in (Variant.BFGS_SKIP, Variant.LBFGS_SKIP)


@dataclass
class SolverConfig:
    """A run's method settings.  ``memory``, the pairs L-BFGS keeps, is at
    most 1000: ``LimitedMemory`` allocates two memory-by-memory arrays up
    front (16 MB at 1000), so a larger value could fail every run."""

    variant: Variant
    memory: int = 10
    ls: LineSearchParams = field(default_factory=LineSearchParams)
    max_iters: int = 1000
    g_eval_budget: int | None = None
    diagnostics: bool = False

    def __post_init__(self):
        self.variant = Variant(self.variant)
        self.memory = integer_setting("memory", self.memory, 1, 1000)
        self.max_iters = integer_setting("max_iters", self.max_iters, 1)
        if self.g_eval_budget is not None:
            self.g_eval_budget = integer_setting("g_eval_budget", self.g_eval_budget, 1)
        if not isinstance(self.diagnostics, bool):
            raise ValueError(f"diagnostics must be a bool, got {self.diagnostics!r}")


@dataclass
class SolverState:
    """Mutable per-run state owned by a single run() invocation.  ``inverse``
    is the inverse Hessian H, a dense ``SymmetricMatrix`` or an L-BFGS
    ``LimitedMemory``; ``direction(inverse, g)`` returns H g
    (``SymmetricMatrix.matvec`` or ``two_loop_direction``) and
    ``update(inverse, pair)`` adds a curvature pair to it
    (``bfgs_inverse_update`` or ``LimitedMemory.push``)."""

    x: np.ndarray
    f_x: float
    g_x: np.ndarray
    inverse: SymmetricMatrix | LimitedMemory
    direction: Callable[[SymmetricMatrix | LimitedMemory, np.ndarray], np.ndarray]
    update: Callable[[SymmetricMatrix | LimitedMemory, CurvaturePair], None]
    search: SearchMemory
    k: int = 0


@dataclass
class IterationRecord:
    """One trace row; values describe the iterate at the iteration's start,
    the action taken, and the cumulative oracle counters after it.

    The fields, in order, are the columns of the CSV trace, and their types
    decide how ``bench`` writes and reads each cell.
    """

    k: int
    phi_true: float
    gap: float
    grad_norm_true: float
    f_noisy: float
    alpha: float
    beta: float | None
    split_active: bool
    cum_f_evals: int
    cum_g_evals: int
    kappa_H: float | None
    lambda_min_B: float | None
    lambda_max_B: float | None
    pair_action: str


@dataclass
class IterationContext:
    """An iteration's trace record plus what lies behind it, handed to an
    observer callback (analysis hooks in tests; not part of the CSV trace).

    ``search`` is the iteration's line search, whose ``x``, ``p`` and
    ``g_x`` are the iterate, direction and observed gradient it started
    from.
    """

    record: IterationRecord
    search: LineSearchOutcome
    pair: CurvaturePair | None
    skip_rule_held: bool | None
    x_new: np.ndarray


@dataclass
class RunTrace:
    problem: str
    variant: str
    records: list[IterationRecord]
    termination_reason: str
    # The k of the first split_active record; None if none is.
    first_split_iteration: int | None
    final_x: np.ndarray
    final_phi_true: float
    final_gap: float
    final_grad_norm_true: float
    f_evals: int
    g_evals: int
    # Gradient evaluations made before the first iterate within the true
    # noise levels (see ``run``); None if none was.
    evals_to_threshold: int | None
    max_f_noise: float
    max_g_noise_norm: float


def skip_condition(
    g_new: np.ndarray, g_old: np.ndarray, p: np.ndarray, eps_g: float
) -> bool:
    """True when the observed curvature is too small to trust the pair.

    Strict inequality: a change exactly at 2 eps_g ||p|| is kept.
    """
    change = float((g_new - g_old) @ p)
    return change < 2.0 * eps_g * norm(p)


def iterate(
    state: SolverState,
    oracle: NoisyOracle,
    config: SolverConfig,
    observer: Callable[[IterationContext], None] | None = None,
) -> IterationRecord:
    """Advance the state by one iteration and return its trace record.

    A non-finite direction, checked first, raises ``NumericalFailureError``.
    With ``config.diagnostics`` on, a dense run then records the extreme
    eigenvalues of H; when LAPACK raises ``np.linalg.LinAlgError`` for
    them, those fields stay empty and the run goes on.
    """
    problem = oracle.problem
    oracle.set_iteration(state.k)
    x = state.x
    phi_true = float(oracle.true_f(x))
    grad_norm_true = norm(oracle.true_g(x))

    f_at_x, g_at_x = state.f_x, state.g_x
    p = -state.direction(state.inverse, g_at_x)
    if not np.isfinite(p).all():
        raise NumericalFailureError(f"non-finite search direction at iteration {state.k}")

    kappa = lambda_min_b = lambda_max_b = None
    if config.diagnostics and isinstance(state.inverse, SymmetricMatrix):
        try:
            lo, hi = eigen_extremes(state.inverse)
        except np.linalg.LinAlgError:
            pass  # leave the diagnostic fields empty, keep running
        else:
            if lo != 0.0 and hi != 0.0:
                lambda_min_b, lambda_max_b = 1.0 / hi, 1.0 / lo
            if lo > 0.0:
                kappa = hi / lo

    variant = config.variant
    eps_f, eps_g = oracle.reported_bounds()
    bounds = (eps_f, eps_g) if variant.noise_tolerant else (0.0, 0.0)
    outcome = two_phase_search(oracle, x, p, config.ls, state.search, f_at_x, g_at_x, *bounds)

    stepped = outcome.alpha > 0.0  # alpha = 0.0 on ALPHA_FAILED
    x_new = x + outcome.alpha * p if stepped else x
    if stepped and not np.isfinite(x_new).all():
        raise NumericalFailureError(f"non-finite iterate at iteration {state.k}")

    # The search reports the pair's step as beta (= alpha on an accepted
    # step) with its gradient.  Every variant drops a pair whose s.y is not
    # above the curvature guard, a NaN s.y included, or whose ||y|| is 0 (y.y
    # can underflow while s.y > 0, and L-BFGS's gamma divides by y.y); the
    # skip variants first drop the pairs their skip rule rejects.
    pair: CurvaturePair | None = None
    pair_action = "skipped"
    skip_held: bool | None = None
    if outcome.beta is not None:
        candidate = CurvaturePair(outcome.beta * p, outcome.g_beta - g_at_x)
        if variant.update_skipping:
            skip_held = skip_condition(outcome.g_beta, g_at_x, p, eps_g)
        y_norm = norm(candidate.y)
        drop = skip_held or not (
            y_norm > 0.0 and candidate.sy > _CURVATURE_GUARD * (norm(candidate.s) * y_norm)
        )
        if not drop:
            state.update(state.inverse, candidate)
            pair = candidate
            pair_action = "lengthened" if outcome.split else "updated"

    if stepped:
        state.f_x = outcome.f_alpha
        state.g_x = (
            outcome.g_alpha if outcome.g_alpha is not None else oracle.noisy_g(x_new)
        )
        state.x = x_new
    else:
        # No movement: re-observe the oracle at x so the next direction is
        # built from a fresh draw rather than replaying a failed one.
        state.f_x = oracle.noisy_f(x)
        state.g_x = oracle.noisy_g(x)

    record = IterationRecord(
        k=state.k,
        phi_true=phi_true,
        gap=phi_true - problem.phi_star,
        grad_norm_true=grad_norm_true,
        f_noisy=f_at_x,
        alpha=outcome.alpha,
        beta=outcome.beta,
        split_active=outcome.split,
        cum_f_evals=oracle.f_evals,
        cum_g_evals=oracle.g_evals,
        kappa_H=kappa,
        lambda_min_B=lambda_min_b,
        lambda_max_B=lambda_max_b,
        pair_action=pair_action,
    )
    if observer is not None:
        observer(IterationContext(record, outcome, pair, skip_held, x_new))
    state.k += 1
    return record


def run(
    problem: Problem,
    noise_spec: NoiseSpec,
    config: SolverConfig,
    observer: Callable[[IterationContext], None] | None = None,
) -> RunTrace:
    """Minimize the problem under the given noise model and return the trace.

    The run ends, with that termination reason, at the first of:
    ``max_iterations`` after ``config.max_iters`` iterations;
    ``gradient_budget`` once ``config.g_eval_budget`` gradients are spent;
    ``stationary_point`` when the observed gradient is exactly zero;
    ``line_search_stagnation``, for any variant on a noiseless oracle
    (xi_f = xi_g = 0), after two consecutive iterations with alpha = 0;
    ``numerical_failure`` at a non-finite direction or iterate.  With
    ``config.diagnostics`` on, an ``np.linalg.LinAlgError`` from the
    eigenvalue diagnostics leaves that record's diagnostic fields empty and
    does not end the run.
    """
    oracle = NoisyOracle(problem, noise_spec)
    x0 = np.array(problem.x0, dtype=float, copy=True)
    variant = config.variant
    # Read per run, not at import: perfbench/tracing.py wraps these names.
    if variant.limited_memory:
        inverse = LimitedMemory(config.memory)
        direction, update = two_loop_direction, LimitedMemory.push
    else:
        inverse = SymmetricMatrix(np.eye(problem.dim))
        direction, update = SymmetricMatrix.matvec, bfgs_inverse_update
    state = SolverState(
        x=x0,
        f_x=oracle.noisy_f(x0),
        g_x=oracle.noisy_g(x0),
        inverse=inverse, direction=direction, update=update,
        search=SearchMemory(config.ls.history),
    )
    records: list[IterationRecord] = []
    reason = "max_iterations"
    noiseless = noise_spec.xi_f == 0.0 and noise_spec.xi_g == 0.0
    failures = 0  # consecutive iterations with alpha = 0
    while state.k < config.max_iters:
        if config.g_eval_budget is not None and oracle.g_evals >= config.g_eval_budget:
            reason = "gradient_budget"
            break
        if norm(state.g_x) == 0.0:
            reason = "stationary_point"
            break
        try:
            record = iterate(state, oracle, config, observer)
        except NumericalFailureError:
            reason = "numerical_failure"
            break
        records.append(record)
        # With a deterministic oracle a failed iteration replays itself
        # exactly, so two failures in a row prove permanent stagnation.  Under
        # injected noise each retry sees fresh draws (and intermittent noise
        # eventually toggles), so failures are transient and the run goes on.
        failures = failures + 1 if record.alpha == 0.0 else 0
        if noiseless and failures >= 2:
            reason = "line_search_stagnation"
            break
    final_phi = float(oracle.true_f(state.x))
    # The gradients spent before the first iterate within the true noise
    # levels (not the omega-scaled ones the method sees): a true gap <= eps_f
    # when eps_f > 0 (at 0 a gap <= 0 is rounding), or a gradient norm <= eps_g.
    # An iteration starts at the previous record's count, the first at x0's 1.
    eps_f, eps_g = oracle.true_bounds()
    starts = [1] + [r.cum_g_evals for r in records]
    evals_to_threshold = next(
        (start for start, r in zip(starts, records)
         if (eps_f > 0.0 and r.gap <= eps_f) or r.grad_norm_true <= eps_g),
        None,
    )
    return RunTrace(
        problem=problem.name,
        variant=variant.value,
        records=records,
        termination_reason=reason,
        first_split_iteration=next((r.k for r in records if r.split_active), None),
        final_x=state.x,
        final_phi_true=final_phi,
        final_gap=final_phi - problem.phi_star,
        final_grad_norm_true=norm(oracle.true_g(state.x)),
        f_evals=oracle.f_evals,
        g_evals=oracle.g_evals,
        evals_to_threshold=evals_to_threshold,
        max_f_noise=oracle.max_f_noise,
        max_g_noise_norm=oracle.max_g_noise_norm,
    )
