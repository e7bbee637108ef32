"""Two-phase line search: the relaxed sufficient-decrease test, noise-control
gates, bisection initial phase, split-phase lengthening, and the run's search
memory: the curvature window feeding the lengthening floor and the trial-run
lengths sizing the next run's first block."""

import dataclasses
import functools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisyqn.linesearch import (
    LineSearchOutcome,
    LineSearchParams,
    Phase,
    SearchMemory,
    initial_phase,
    split_phase,
    two_phase_search,
    _trial_run,
)
from noisyqn.noise import NoiseSpec, NoisyOracle
from noisyqn.problems import Problem, make_quadratic, registered_names, registry_lookup
from noisyqn.solver import SolverConfig, Variant, run


def scalar_problem(f, g, name="SCALAR"):
    return Problem(
        name=name,
        x0=np.zeros(1),
        eval_f=lambda x: float(f(x[0])),
        eval_g=lambda x: np.array([g(x[0])]),
        phi_star=0.0,
    )


def flat_problem(slope=1e-17):
    """A constant objective whose reported gradient is the tiny constant
    ``slope``: along p = +1 the direction is (barely) uphill, g.p > 0."""
    return scalar_problem(lambda v: 0.0, lambda v: slope, name="FLAT")


def half_square_oracle(**noise_kwargs):
    """phi(x) = x^2/2 wrapped in an oracle (noiseless unless told otherwise)."""
    prob = scalar_problem(lambda v: 0.5 * v * v, lambda v: v)
    return NoisyOracle(prob, NoiseSpec(**noise_kwargs))


def scalar_line(x, p, f_x, g_x, eps_f=0.0, eps_g=0.0):
    """A new search from the scalar x along the scalar p."""
    return LineSearchOutcome(np.array([x]), np.array([p]), f_x, np.array([g_x]), eps_f, eps_g)


def unit_line(f_x=0.0, g_dot_p=0.0, eps_f=0.0, eps_g=0.0):
    """A search from x = 0 along p = 1 (so ||p|| = 1) with g_x = g.p."""
    return scalar_line(0.0, 1.0, f_x, g_dot_p, eps_f, eps_g)


class TestNoiseControl:
    def test_threshold_arithmetic(self):
        """Difference 5 against threshold 2(1+c3) eps_g ||p|| = 3."""
        search = unit_line(eps_g=1.0)
        g_new = np.array([5.0])
        assert search.noise_control(g_new, c3=0.5, symmetric=True)
        assert search.noise_control(g_new, c3=0.5, symmetric=False)

    def test_just_below_threshold_fails(self):
        search = unit_line(eps_g=1.0)
        assert not search.noise_control(np.array([2.999999]), c3=0.5, symmetric=True)

    def test_zero_eps_g_always_holds(self):
        search = LineSearchOutcome(
            np.zeros(2), np.array([0.0, 1.0]), 0.0, np.array([1.0, 2.0]), 0.0, 0.0
        )
        g_new = np.array([1.0, 2.0 + 1e-300])
        assert search.noise_control(g_new, c3=0.5, symmetric=True)

    def test_sign_sensitivity(self):
        """A difference of -5: the absolute-value form passes, the signed
        form does not."""
        search = unit_line(eps_g=1.0)
        g_new = np.array([-5.0])
        assert search.noise_control(g_new, c3=0.5, symmetric=True)
        assert not search.noise_control(g_new, c3=0.5, symmetric=False)


class TestRelaxedArmijo:
    def test_reliable_direction_first_trial(self):
        search = unit_line(f_x=0.5, g_dot_p=-1.0, eps_g=0.5)
        assert search.armijo(0, f_new=0.4, alpha=1.0, c1=1e-4)

    def test_later_trials_gain_noise_margin(self):
        """i >= 1 adds 2 eps_f of slack to the right-hand side."""
        search = unit_line(f_x=0.5, g_dot_p=-1.0, eps_f=1e-3, eps_g=0.5)
        assert search.armijo(1, f_new=0.5 + 1e-3, alpha=1.0, c1=1e-4)
        assert not search.armijo(0, f_new=0.5 + 1e-3, alpha=1.0, c1=1e-4)

    def test_unreliable_direction_uses_simple_decrease(self):
        """|g.p| below eps_g ||p||: any decrease counts."""
        search = unit_line(f_x=0.5, g_dot_p=-0.3, eps_g=0.5)
        assert search.armijo(0, f_new=0.49, alpha=1.0, c1=1e-4)

    def test_unreliable_direction_rejects_increase_on_first_trial(self):
        search = unit_line(f_x=0.5, g_dot_p=-0.3, eps_g=0.5)
        assert not search.armijo(0, f_new=0.51, alpha=1.0, c1=1e-4)

    def test_zero_eps_g_applies_classical_test_uphill(self):
        """With eps_g = 0 and g.p > 0 the classical bound f_old + c1 alpha g.p
        applies, not strict decrease: no change in f passes, a rise past the
        bound fails."""
        search = unit_line(f_x=0.5, g_dot_p=1e-3)
        assert search.armijo(0, f_new=0.5, alpha=1.0, c1=1e-4)
        assert search.armijo(0, f_new=0.5 + 1e-7, alpha=1.0, c1=1e-4)
        assert not search.armijo(0, f_new=0.5 + 2e-7, alpha=1.0, c1=1e-4)

    @pytest.mark.parametrize("f_new", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("i", [0, 1])
    @pytest.mark.parametrize("g_dot_p", [-1.0, 1.0])
    @pytest.mark.parametrize("eps_g", [0.0, 0.5])
    def test_non_finite_value_fails(self, f_new, i, g_dot_p, eps_g):
        """NaN and both infinities fail at every trial index and either sign
        of g.p, on the classical test and on plain decrease alike; -inf
        would pass either comparison."""
        search = unit_line(f_x=0.5, g_dot_p=g_dot_p, eps_f=1e-3, eps_g=eps_g)
        assert not search.armijo(i, f_new=f_new, alpha=1.0, c1=1e-4)

    def test_uphill_direction_under_gradient_noise_is_unreliable(self):
        """g.p = 1 > -eps_g ||p||: only plain decrease passes."""
        search = unit_line(f_x=0.5, g_dot_p=1.0, eps_g=0.5)
        assert not search.reliable
        assert search.armijo(0, f_new=0.5 - 1e-9, alpha=1.0, c1=1e-4)

    @pytest.mark.parametrize("g_dot_p", [-1.0, 0.0, 1.0])
    def test_zero_eps_g_is_reliable_whatever_the_sign(self, g_dot_p):
        assert unit_line(f_x=0.5, g_dot_p=g_dot_p).reliable


class TestTrialRunDecision:
    """``_trial_run`` stops at the first trial that passes
    ``search.armijo`` with its index in the whole search, with rows on
    and off."""

    @pytest.mark.parametrize("f_rows", [True, False])
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        picks=st.lists(
            st.one_of(
                st.floats(-2.0, 2.0),
                st.sampled_from([math.nan, math.inf, -math.inf, "tie"]),
            ),
            min_size=1,
            max_size=12,
        ),
        first=st.integers(0, 2),
        f_x=st.floats(-1e3, 1e3),
        g=st.sampled_from([-3.0, -1e-3, 0.0, 2.0]),
        eps_f=st.sampled_from([0.0, 1e-3]),
        eps_g=st.sampled_from([0.0, 1e-3, 10.0]),
        start=st.floats(1e-3, 1.0),
        factor=st.sampled_from([0.5, 0.1]),
    )
    def test_same_decisions_as_relaxed_armijo(
        self, f_rows, picks, first, f_x, g, eps_f, eps_g, start, factor
    ):
        c1, p_norm = 1e-4, 1.0
        alphas = [start]
        for _ in picks[1:]:
            alphas.append(factor * alphas[-1])
        values = []
        for i, (pick, alpha) in enumerate(zip(picks, alphas)):
            slack = 2.0 * eps_f if first + i >= 1 else 0.0
            if pick == "tie":  # exactly at the bound the test compares with
                reliable = eps_g == 0.0 or g < -eps_g * p_norm
                pick = f_x + c1 * alpha * g + slack if reliable else f_x + slack
            values.append(pick)
        search = LineSearchOutcome(np.zeros(1), np.ones(1), f_x, np.array([g]), eps_f, eps_g)
        taken, expected = len(picks), (alphas[-1], values[-1] + 0.0, False)
        for i, (value, alpha) in enumerate(zip(values, alphas)):
            if search.armijo(first + i, value, alpha, c1):
                taken, expected = i + 1, (alpha, value + 0.0, True)
                break

        queue = iter(values)

        def eval_f(x):
            if x.ndim == 2:
                return np.array([next(queue) for _ in x])
            return next(queue)

        prob = Problem(
            name="TABLE", x0=np.zeros(1), eval_f=eval_f,
            eval_g=np.zeros_like, phi_star=0.0, f_rows=f_rows,
        )
        oracle = NoisyOracle(prob, NoiseSpec())
        search.f_trials = first
        got = _trial_run(oracle, SearchMemory(10), search, start, factor, len(picks), c1)
        assert repr(got) == repr(expected)
        assert search.f_trials == first + taken
        assert oracle.f_evals == taken


class TestTrackerUpdate:
    def test_push_arithmetic(self):
        """mu-bar = (dg.p) / (beta ||p||^2) = 2 / (1*4) = 0.5."""
        memory = SearchMemory(10)
        p = np.array([2.0, 0.0])
        memory.observe(
            beta=1.0, p=p,
            g_new=np.array([1.0, 0.0]), g_old=np.array([0.0, 0.0]),
            wolfe_held=True,
        )
        assert memory.estimate == pytest.approx(0.5, rel=1e-15)

    def test_gating(self):
        memory = SearchMemory(10)
        memory.observe(
            beta=1.0, p=np.array([1.0]),
            g_new=np.array([1.0]), g_old=np.array([0.0]),
            wolfe_held=False,
        )
        assert memory.estimate is None

    @pytest.mark.parametrize(
        "p", [0.0, math.sqrt(5e-324)], ids=["zero", "underflow"]
    )
    def test_zero_scale_pushes_nothing(self, p):
        """beta ||p||^2 = 0 (p = 0, or 0.5 * p.p with p.p = 5e-324 rounding
        to 0) gives no estimate instead of dividing by zero."""
        memory = SearchMemory(10)
        memory.observe(
            beta=0.5, p=np.array([p]),
            g_new=np.array([1.0]), g_old=np.array([0.0]),
            wolfe_held=True,
        )
        assert memory.estimate is None

    def test_min_over_ring(self):
        memory = SearchMemory(10)
        p = np.array([1.0])
        for mu in (0.5, 0.2, 0.9):
            memory.observe(
                beta=1.0, p=p,
                g_new=np.array([mu]), g_old=np.array([0.0]),
                wolfe_held=True,
            )
        assert memory.estimate == pytest.approx(0.2, rel=1e-15)

    def test_ring_evicts_beyond_history(self):
        memory = SearchMemory(2)
        p = np.array([1.0])
        for mu in (0.1, 0.5, 0.9):
            memory.observe(
                beta=1.0, p=p,
                g_new=np.array([mu]), g_old=np.array([0.0]),
                wolfe_held=True,
            )
        # 0.1 has been evicted; min of {0.5, 0.9}
        assert memory.estimate == pytest.approx(0.5, rel=1e-15)

    def test_nonpositive_curvature_never_stored(self):
        memory = SearchMemory(4)
        p = np.array([1.0])
        memory.observe(
            beta=1.0, p=p,
            g_new=np.array([-1.0]), g_old=np.array([0.0]),
            wolfe_held=True,
        )
        assert memory.estimate is None


class TestInitialPhase:
    def test_bisection_bracket_after_the_halving_run(self):
        """f = -t up to t = 0.9, then 10, with slope -1 throughout: alpha = 1
        fails Armijo, 0.5 passes it but not Wolfe.  The bisection then goes
        on inside [0.5, 1], the halving run's last failure being its upper
        end: 0.75, 0.875, then 0.9375, which fails Armijo again.  With an f
        noise bound (its 2 eps_f slack decides none of these trials) the
        search stops there at ``n_split`` = 5 trials, still running."""
        prob = scalar_problem(lambda t: -t if t < 0.9 else 10.0, lambda t: -1.0)
        oracle = NoisyOracle(prob, NoiseSpec())
        res = initial_phase(
            oracle, LineSearchParams(n_split=5), SearchMemory(10),
            scalar_line(0.0, 1.0, 0.0, -1.0, eps_f=1e-3),
        )
        assert res.phase is None and res.f_trials == 5 and res.g_trials == 3
        assert res.alpha == 0.9375 and res.alpha_best == 0.875

    def test_unit_step_accepted_immediately(self):
        """phi = x^2/2 from x = 1 along p = -1: alpha = 1 lands on the
        minimizer and passes all three gates on the first trial."""
        oracle = half_square_oracle()
        res = initial_phase(
            oracle, LineSearchParams(), SearchMemory(10), scalar_line(1.0, -1.0, 0.5, 1.0)
        )
        assert res.phase is Phase.INITIAL_ACCEPTED
        assert res.alpha == 1.0
        assert res.f_trials == 1
        assert res.g_trials == 1

    def test_bisection_from_large_start(self):
        """With p = -4 the first trial overshoots to x = -3: the steps walk
        4 -> 2 -> 1 (alpha 1 -> 0.5 -> 0.25) with the upper bracket
        shrinking, three function trials in all."""
        oracle = half_square_oracle()
        res = initial_phase(
            oracle, LineSearchParams(), SearchMemory(10), scalar_line(1.0, -4.0, 0.5, 1.0)
        )
        assert res.phase is Phase.INITIAL_ACCEPTED
        assert res.alpha == 0.25
        assert res.f_trials == 3

    def test_alpha_doubles_without_upper_bracket(self):
        """phi = x^2/2 from x = 4 along p = -1 with c2 = 0.1: Wolfe needs
        alpha >= 3.6, so the search doubles 1 -> 2 -> 4 and accepts 4."""
        oracle = half_square_oracle()
        res = initial_phase(
            oracle, LineSearchParams(c2=0.1), SearchMemory(10), scalar_line(4.0, -1.0, 8.0, 4.0)
        )
        assert res.phase is Phase.INITIAL_ACCEPTED
        assert res.alpha == 4.0
        assert res.f_trials == 3

    def test_noise_control_failure_triggers_split(self):
        """With a flat-enough gradient change, |dg.p| < 2(1+c3) eps_g ||p||
        at the first trial: returns a split trigger after one gradient
        evaluation."""
        oracle = half_square_oracle()
        res = initial_phase(
            oracle, LineSearchParams(), SearchMemory(10),
            scalar_line(1.0, -1.0, 0.5, 1.0, eps_g=10.0),
        )
        assert res.phase is None
        assert res.g_trials == 1

    def test_best_trial_tracked_for_split(self):
        oracle = half_square_oracle()
        res = initial_phase(
            oracle, LineSearchParams(), SearchMemory(10),
            scalar_line(1.0, -1.0, 0.5, 1.0, eps_g=10.0),
        )
        assert res.alpha_best == 1.0
        assert res.f_best == pytest.approx(0.0)


def handoff(oracle, x, p, eps_g, alpha, alpha_best=None):
    """What an unaccepted bisection hands to the split phase: the line
    through ``x`` along ``p`` and a last trial at steplength ``alpha``."""
    xv = np.array([x])
    return LineSearchOutcome(
        xv, np.array([p]), oracle.problem.eval_f(xv), oracle.problem.eval_g(xv),
        eps_f=0.0, eps_g=eps_g, alpha=alpha, alpha_best=alpha_best,
    )


class TestSplitPhase:
    def test_doubling_without_tracker(self):
        """Signed control needs beta >= 0.3 on phi = x^2/2 with eps_g = 0.1,
        c3 = 0.5; with a fresh memory (no curvature estimate), doubling
        from 0.25 lands on 0.5 after two trials."""
        oracle = half_square_oracle()
        out = split_phase(
            oracle, LineSearchParams(), SearchMemory(10),
            handoff(oracle, 0.0, 1.0, eps_g=0.1, alpha=0.25, alpha_best=0.25),
        )
        assert out.beta == pytest.approx(0.5)
        assert out.g_trials == 2

    def test_tracker_floor_jumps_past_doubling(self):
        """mu = 1 gives floor beta-bar = 2(1.5)(0.1)/1 = 0.3; the successor
        max{2*0.25, 0.3} = 0.5 holds in one trial."""
        oracle = half_square_oracle()
        memory = SearchMemory(10)
        memory.observe(1.0, np.array([1.0]), np.array([1.0]), np.array([0.0]), True)
        assert memory.estimate == 1.0
        out = split_phase(
            oracle, LineSearchParams(), memory,
            handoff(oracle, 0.0, 1.0, eps_g=0.1, alpha=0.25, alpha_best=0.25),
        )
        assert out.beta == pytest.approx(0.5)
        assert out.g_trials == 1

    def test_alpha_best_reused_without_function_trials(self):
        oracle = half_square_oracle()
        before = oracle.f_evals
        out = split_phase(
            oracle, LineSearchParams(), SearchMemory(10),
            handoff(oracle, 0.0, 1.0, eps_g=0.1, alpha=0.5, alpha_best=0.5),
        )
        assert out.alpha == 0.5
        assert oracle.f_evals == before
        assert out.f_trials == 0

    def test_alpha_backtracks_by_tens(self):
        """No alpha_best: the alpha loop divides by 10 until the relaxed
        Armijo test passes."""
        oracle = half_square_oracle()
        out = split_phase(
            oracle, LineSearchParams(), SearchMemory(10),
            handoff(oracle, 1.0, -1.0, eps_g=1e-6, alpha=40.0),
        )
        assert out.phase in (Phase.SPLIT_COMPLETED, Phase.BETA_FAILED)
        assert out.alpha in (4.0, 0.4)

    def test_alpha_failure_reported_not_raised(self):
        """An objective that only increases along p exhausts the alpha
        budget; the outcome says so and takes no step."""
        prob = scalar_problem(lambda v: v, lambda v: 1.0, name="RAMP")
        oracle = NoisyOracle(prob, NoiseSpec())
        out = split_phase(
            oracle, LineSearchParams(max_ls_iters=8), SearchMemory(10),
            handoff(oracle, 0.0, 1.0, eps_g=0.5, alpha=1.0),
        )
        assert out.phase == Phase.ALPHA_FAILED
        assert out.alpha == 0.0

    def test_budget_shared_with_bisection(self):
        """The alpha loop spends only what the bisection left of
        ``max_ls_iters``, and the outcome counts the whole search."""
        prob = scalar_problem(lambda v: v, lambda v: 1.0, name="RAMP")
        oracle = NoisyOracle(prob, NoiseSpec())
        init = handoff(oracle, 0.0, 1.0, eps_g=0.5, alpha=1.0)
        init.f_trials, init.g_trials = 5, 2
        out = split_phase(
            oracle, LineSearchParams(max_ls_iters=8), SearchMemory(10), init
        )
        assert oracle.f_evals == 3
        assert out.f_trials == 8
        assert out.g_trials == 2 + oracle.g_evals

    def test_beta_failure_returns_no_beta(self):
        """A gradient that never moves cannot satisfy the signed control:
        BetaFailed and beta is absent."""
        prob = scalar_problem(lambda v: -v, lambda v: -1.0, name="LINE")
        oracle = NoisyOracle(prob, NoiseSpec())
        out = split_phase(
            oracle, LineSearchParams(max_lengthening=6), SearchMemory(10),
            handoff(oracle, 0.0, 1.0, eps_g=0.5, alpha=1.0, alpha_best=1.0),
        )
        assert out.phase == Phase.BETA_FAILED
        assert out.beta is None
        assert out.g_beta is None


class TestPlainSearch:
    def test_uphill_flat_direction_accepts_unit_step(self):
        """g.p = +1e-17 on a constant objective: the classical test
        f_new <= f_x + c1 alpha g.p holds at alpha = 1, and so does Wolfe,
        so one trial suffices (strict decrease would never be met)."""
        oracle = NoisyOracle(flat_problem(), NoiseSpec())
        out = two_phase_search(
            oracle, np.zeros(1), np.ones(1), LineSearchParams(), SearchMemory(10),
            f_x=0.0, g_x=np.array([1e-17]), eps_f=0.0, eps_g=0.0,
        )
        assert out.phase == Phase.INITIAL_ACCEPTED
        assert out.alpha == 1.0
        assert out.beta == 1.0
        assert (out.f_trials, out.g_trials) == (1, 1)

    def test_exhausted_budget_fails_without_step(self):
        """An objective rising along p passes no Armijo test: after
        ``max_ls_iters`` function trials the search reports ALPHA_FAILED."""
        prob = scalar_problem(lambda v: v, lambda v: -1.0, name="RISE")
        oracle = NoisyOracle(prob, NoiseSpec())
        out = two_phase_search(
            oracle, np.zeros(1), np.ones(1), LineSearchParams(max_ls_iters=7),
            SearchMemory(10), f_x=0.0, g_x=np.array([-1.0]), eps_f=0.0, eps_g=0.0,
        )
        assert out.phase == Phase.ALPHA_FAILED
        assert (out.alpha, out.beta, out.f_alpha, out.g_alpha) == (0.0, None, None, None)
        assert (out.f_trials, out.g_trials) == (7, 0)
        assert oracle.f_evals == 7


class TestTwoPhaseSearch:
    @pytest.mark.parametrize("name", ["ARWHEAD", "TRIDIA", "ENGVAL1", "FLAT"])
    def test_noiseless_reduction_to_plain_bisection(self, name):
        """With both noise bounds at zero the two-phase search is its
        initial phase alone, the plain Armijo-Wolfe bisection, trial for
        trial.  FLAT searches uphill (g.p > 0) on a constant objective: both
        apply the classical Armijo test there and take the unit step."""
        prob = flat_problem() if name == "FLAT" else registry_lookup(name)
        params = LineSearchParams()
        x = prob.x0.copy()
        for _ in range(12):
            oracle_a = NoisyOracle(prob, NoiseSpec())
            oracle_b = NoisyOracle(prob, NoiseSpec())
            f_x = prob.eval_f(x)
            g_x = prob.eval_g(x)
            p = np.ones(1) if name == "FLAT" else -g_x
            if np.linalg.norm(p) < 1e-12:
                break
            two = two_phase_search(
                oracle_a, x, p, params, SearchMemory(10),
                f_x=f_x, g_x=g_x, eps_f=0.0, eps_g=0.0,
            )
            plain = initial_phase(
                oracle_b, params, SearchMemory(10),
                LineSearchOutcome(x, p, f_x, g_x, eps_f=0.0, eps_g=0.0),
            )
            assert two.alpha == plain.alpha
            assert two.f_trials == plain.f_trials
            assert two.phase == Phase.INITIAL_ACCEPTED
            assert two.beta == two.alpha
            x = x + two.alpha * p

    def test_noiseless_failure_does_not_split(self):
        """Without a noise bound the two-phase search is the plain search
        also when no trial is accepted: ``n_split`` plays no part, and it
        ends ``ALPHA_FAILED`` after ``max_ls_iters`` trials, unsplit."""
        plain = rising_line_search(max_ls_iters=40)
        two = rising_line_search(n_split=5, max_ls_iters=40)
        for out in (plain, two):
            assert not out.split
            assert (out.phase, out.alpha, out.beta, out.f_alpha) == (
                Phase.ALPHA_FAILED, 0.0, None, None
            )
            assert (out.f_trials, out.g_trials) == (40, 0)

    def test_returned_beta_satisfies_signed_control(self):
        """On a noisy quadratic every returned beta passes the signed
        noise-control test against the true gradient change it observed."""
        prob = make_quadratic(20, 1.0, 50.0, seed=3)
        oracle = NoisyOracle(prob, NoiseSpec(xi_g=1e-3, seed=5))
        eps_f, eps_g = oracle.reported_bounds()
        params = LineSearchParams()
        memory = SearchMemory(10)
        x = prob.x0.copy()
        checked = 0
        for _ in range(60):
            f_x = oracle.noisy_f(x)
            g_x = oracle.noisy_g(x)
            p = -g_x
            out = two_phase_search(
                oracle, x, p, params, memory,
                f_x=f_x, g_x=g_x, eps_f=eps_f, eps_g=eps_g,
            )
            if out.beta is not None:
                threshold = 2.0 * (1.0 + params.c3) * eps_g * np.linalg.norm(p)
                assert float((out.g_beta - g_x) @ p) >= threshold * (1 - 1e-12)
                checked += 1
            if out.alpha > 0.0:
                x = x + out.alpha * p
        assert checked > 10

    def test_lengthened_step_lower_bound(self):
        """Accepted lengthened steps obey ||s|| >= 2 c3 eps_g / M on an
        M-smooth quadratic."""
        big_m = 50.0
        prob = make_quadratic(20, 1.0, big_m, seed=3)
        oracle = NoisyOracle(prob, NoiseSpec(xi_g=1e-3, seed=5))
        _, eps_g = oracle.reported_bounds()
        params = LineSearchParams()
        memory = SearchMemory(10)
        floor = 2.0 * params.c3 * eps_g / big_m
        x = prob.x0.copy()
        for _ in range(60):
            f_x = oracle.noisy_f(x)
            g_x = oracle.noisy_g(x)
            p = -g_x
            out = two_phase_search(
                oracle, x, p, params, memory,
                f_x=f_x, g_x=g_x, eps_f=0.0, eps_g=eps_g,
            )
            if out.beta is not None:
                step = out.beta * float(np.linalg.norm(p))
                assert step >= floor * (1 - 1e-9)
            if out.alpha > 0.0:
                x = x + out.alpha * p

    def test_unreliable_direction_accepts_plain_decrease(self):
        """Observed g.p = -0.5 lies within eps_g ||p|| = 1 of zero, so the
        direction is unreliable: the first trial, f(1) = -1e-6, passes
        relaxed Armijo as plain decrease though it misses
        c1 alpha g.p = -5e-5.  Its gradient fails noise control, and the
        split phase takes it as the best trial: the step is 1 after one
        f trial.  Judged by the classical test, no trial of the halving or
        the backtracking passes, and the search fails without a step."""
        prob = scalar_problem(lambda v: -1e-6 * v, lambda v: -1e-6)
        oracle = NoisyOracle(prob, NoiseSpec())
        out = two_phase_search(
            oracle, np.zeros(1), np.ones(1), LineSearchParams(), SearchMemory(10),
            f_x=0.0, g_x=np.array([-0.5]), eps_f=0.0, eps_g=1.0,
        )
        assert not out.reliable
        assert (out.phase, out.alpha, out.f_alpha) == (Phase.BETA_FAILED, 1.0, -1e-6)
        assert out.f_trials == 1

    def test_split_lengthening_needs_a_positive_change(self):
        """On f = -v - 5 v^2 along p = 1, each trial passes Armijo and the
        symmetric noise control, |(g - g_x).p| = 10 alpha >= 0.3, and fails
        Wolfe; the bisection doubles to alpha = 4 and hands off after
        ``n_split`` = 3 trials.  The split phase's signed test never holds on
        the negative change -10 beta, so beta keeps doubling until
        ``max_lengthening`` runs out: BETA_FAILED, no pair."""
        prob = scalar_problem(lambda v: -v - 5.0 * v * v, lambda v: -1.0 - 10.0 * v)
        oracle = NoisyOracle(prob, NoiseSpec())
        out = two_phase_search(
            oracle, np.zeros(1), np.ones(1),
            LineSearchParams(n_split=3, max_lengthening=4), SearchMemory(10),
            f_x=0.0, g_x=np.array([-1.0]), eps_f=0.0, eps_g=0.1,
        )
        assert out.split
        assert (out.phase, out.alpha, out.beta, out.g_beta) == (Phase.BETA_FAILED, 4.0, None, None)
        assert (out.f_trials, out.g_trials) == (3, 3 + 4)

    def test_trial_counters_match_oracle_deltas(self):
        prob = make_quadratic(10, 1.0, 20.0, seed=1)
        oracle = NoisyOracle(prob, NoiseSpec(xi_f=1e-3, xi_g=1e-3, seed=2))
        eps_f, eps_g = oracle.reported_bounds()
        params = LineSearchParams()
        memory = SearchMemory(10)
        x = prob.x0.copy()
        for _ in range(25):
            f_x = oracle.noisy_f(x)
            g_x = oracle.noisy_g(x)
            p = -g_x
            f0, g0 = oracle.f_evals, oracle.g_evals
            out = two_phase_search(
                oracle, x, p, params, memory,
                f_x=f_x, g_x=g_x, eps_f=eps_f, eps_g=eps_g,
            )
            assert out.f_trials == oracle.f_evals - f0
            assert out.g_trials == oracle.g_evals - g0
            if out.alpha > 0.0:
                x = x + out.alpha * p


class TestSearchResultContract:
    """What the solver relies on in every search result, through both
    searches, on small quadratics at zero, small and large noise."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        d=st.integers(1, 6),
        big_m=st.sampled_from([1.0, 1e2, 1e4]),
        problem_seed=st.integers(0, 50),
        xi_f=st.sampled_from([0.0, 1e-6, 1e-1]),
        xi_g=st.sampled_from([0.0, 1e-6, 1e-1]),
        noise_seed=st.integers(0, 2**16),
        scales=st.lists(st.sampled_from([-1.0, 1e-3, 1.0, 1e3]), min_size=1, max_size=4),
        plain=st.booleans(),
        max_lengthening=st.sampled_from([1, 30]),
    )
    def test_result_fields_agree(
        self, d, big_m, problem_seed, xi_f, xi_g, noise_seed, scales, plain,
        max_lengthening,
    ):
        """A few searches in a row from one point share the run's memory; a
        scale of -1 searches uphill along +g, and one lengthening trial
        leaves some split phases without a beta."""
        prob = make_quadratic(d, 1.0, big_m, problem_seed)
        oracle = NoisyOracle(prob, NoiseSpec(xi_f=xi_f, xi_g=xi_g, seed=noise_seed))
        eps_f, eps_g = oracle.reported_bounds()
        params = LineSearchParams(max_lengthening=max_lengthening)
        memory = SearchMemory(params.history)
        x = prob.x0.copy()
        for scale in scales:
            f_x, g_x = oracle.noisy_f(x), oracle.noisy_g(x)
            p = -scale * g_x
            f0, g0 = oracle.f_evals, oracle.g_evals
            bounds = (0.0, 0.0) if plain else (eps_f, eps_g)
            out = two_phase_search(oracle, x, p, params, memory, f_x, g_x, *bounds)
            assert out.phase is not None
            assert (out.alpha == 0.0) == (out.phase is Phase.ALPHA_FAILED)
            if out.alpha > 0.0:
                assert out.f_alpha is not None
            assert (out.beta is None) == (out.g_beta is None)
            if out.phase is Phase.INITIAL_ACCEPTED:
                assert out.beta == out.alpha
                assert out.g_beta is out.g_alpha
            assert (out.f_trials, out.g_trials) == (
                oracle.f_evals - f0, oracle.g_evals - g0
            )


# Registry problems whose kernels evaluate a stack of trial points.
ROW_NAMES = tuple(
    name
    for name in registered_names()
    if not name.startswith("QUAD(") and registry_lookup(name).f_rows
)


@functools.cache
@functools.cache
def minimizer_estimate(name):
    """A point close to the problem's minimizer: a noiseless L-BFGS run from
    the standard start."""
    config = SolverConfig(variant=Variant.LBFGS, max_iters=300)
    return run(registry_lookup(name), NoiseSpec(), config).final_x


def row_search(name, search, x, p, xi_f, xi_g, f_rows, count_calls=None):
    """One ``two_phase_search`` along p from x on a registry problem with
    block evaluation of the fixed trial runs on or off, at the oracle's
    noise bounds for ``search`` = "two_phase" and at zero bounds (the plain
    Armijo-Wolfe search) for "armijo_wolfe"; returns (outcome, oracle).
    ``count_calls`` gets one entry per ``eval_f`` call: None for a single
    point, the number of rows for a block."""
    prob = dataclasses.replace(registry_lookup(name), f_rows=f_rows)
    if count_calls is not None:
        kernel = prob.eval_f

        def counted(points):
            count_calls.append(len(points) if points.ndim == 2 else None)
            return kernel(points)

        prob = dataclasses.replace(prob, eval_f=counted)
    oracle = NoisyOracle(prob, NoiseSpec(xi_f=xi_f, xi_g=xi_g, seed=4))
    f_x, g_x = oracle.noisy_f(x), oracle.noisy_g(x)
    params, memory = LineSearchParams(), SearchMemory(10)
    bounds = oracle.reported_bounds() if search == "two_phase" else (0.0, 0.0)
    out = two_phase_search(oracle, x, p, params, memory, f_x, g_x, *bounds)
    return out, oracle


def search_bits(out, oracle):
    """Everything a search leaves behind, floats and arrays as exact bits."""

    def bits(value):
        if value is None:
            return None
        if isinstance(value, np.ndarray):
            return value.tobytes()
        return float(value).hex()

    return (
        bits(out.alpha), bits(out.beta), out.phase, out.f_trials, out.g_trials,
        bits(out.f_alpha), bits(out.g_alpha), bits(out.g_beta),
        oracle.f_evals, oracle.g_evals, bits(oracle.max_f_noise),
        bits(oracle.max_g_noise_norm),
    )


class TestBlockTrialsInvisible:
    """Evaluating the halving and backtracking runs ahead in blocks changes
    nothing a search returns or leaves in its oracle."""

    @pytest.mark.parametrize("name", ROW_NAMES)
    @pytest.mark.parametrize("search", ["two_phase", "armijo_wolfe"])
    @pytest.mark.parametrize("xi_f", [0.0, 1e-3])
    @pytest.mark.parametrize("xi_g", [0.0, 1e-3])
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        near_minimizer=st.booleans(),
        offset=st.integers(1, 8),
        scale=st.integers(-2, 8),
        uphill=st.booleans(),
    )
    def test_same_outcome_with_rows_on_and_off(
        self, name, search, xi_f, xi_g, seed, near_minimizer, offset, scale, uphill
    ):
        rng = np.random.default_rng(seed)
        prob = registry_lookup(name)
        x = minimizer_estimate(name) if near_minimizer else prob.x0
        x = x + 10.0**-offset * rng.standard_normal(prob.dim)
        p = 10.0**scale * prob.eval_g(x) * (1.0 if uphill else -1.0)
        calls_off = []
        rows_on = row_search(name, search, x, p, xi_f, xi_g, f_rows=True)
        rows_off = row_search(name, search, x, p, xi_f, xi_g, False, calls_off)
        assert search_bits(*rows_on) == search_bits(*rows_off)
        assert calls_off == [None] * rows_off[1].f_evals  # one point per count

    @pytest.mark.parametrize("search", ["two_phase", "armijo_wolfe"])
    def test_exhausted_budget_takes_few_kernel_calls(self, search):
        """Uphill from ARWHEAD's start, both searches spend the whole
        60-trial budget.  With rows on, the f-trials cost a handful of block
        calls and leave no row unused: the runs end exactly at the budget."""
        x = registry_lookup("ARWHEAD").x0.copy()
        p = registry_lookup("ARWHEAD").eval_g(x)
        calls_on, calls_off = [], []
        out, oracle = row_search("ARWHEAD", search, x, p, 0.0, 1e-3, True, calls_on)
        assert search_bits(out, oracle) == search_bits(
            *row_search("ARWHEAD", search, x, p, 0.0, 1e-3, False, calls_off)
        )
        assert out.phase == Phase.ALPHA_FAILED and out.f_trials == 60
        assert calls_off == [None] * 61  # f at x, then one call per trial
        blocks = calls_on[1:]
        assert calls_on[0] is None and None not in blocks and len(blocks) <= 6
        assert sum(blocks) == out.f_trials  # no row unused

    def test_rows_after_an_accepted_trial_are_unused(self):
        """From ARWHEAD's start, steepest descent is accepted after 10
        halvings: the blocks of 8 and 16 rows leave 14 rows unused, which
        get neither a count nor a noise draw."""
        prob = registry_lookup("ARWHEAD")
        x = prob.x0.copy()
        p = -prob.eval_g(x)
        calls = []
        out, oracle = row_search("ARWHEAD", "two_phase", x, p, 1e-3, 0.0, True, calls)
        assert out.phase == Phase.INITIAL_ACCEPTED and out.f_trials == 10
        assert calls == [None, 8, 16]
        assert sum(calls[1:]) - out.f_trials == 14
        assert oracle.f_evals == 1 + out.f_trials


    @staticmethod
    def exhausted_arwhead_search(rows):
        """An ARWHEAD oracle whose ``eval_f`` appends each call's row count
        to ``rows``, after one uphill two-phase search from the start that
        spends its whole budget: 30 halvings, then 30 backtracking trials.
        Returns (oracle, its memory, (f_x, g_x, eps_f, eps_g) at the start)."""
        prob = registry_lookup("ARWHEAD")

        def counted(points):
            rows.append(len(points) if points.ndim == 2 else 1)
            return prob.eval_f(points)

        oracle = NoisyOracle(
            dataclasses.replace(prob, eval_f=counted), NoiseSpec(xi_g=1e-3, seed=4)
        )
        memory = SearchMemory(10)
        x = prob.x0.copy()
        f_x, g_x = oracle.noisy_f(x), oracle.noisy_g(x)
        eps_f, eps_g = oracle.reported_bounds()
        out = two_phase_search(oracle, x, g_x, LineSearchParams(), memory, f_x, g_x, eps_f, eps_g)
        assert out.phase == Phase.ALPHA_FAILED and out.f_trials == 60
        assert memory.run_trials == {0.5: 30, 0.1: 30}
        del rows[:]
        return oracle, memory, (f_x, g_x, eps_f, eps_g)

    def test_carried_block_size_takes_one_kernel_call(self):
        """After the exhausted search, the next halving run of the same
        memory starts with a block of 30 rows, so the downhill search after
        it evaluates its 10 halvings in one call and leaves the other 20
        rows unused."""
        rows = []
        oracle, memory, (f_x, g_x, eps_f, eps_g) = self.exhausted_arwhead_search(rows)
        x, params = oracle.problem.x0.copy(), LineSearchParams()
        out = two_phase_search(oracle, x, -g_x, params, memory, f_x, g_x, eps_f, eps_g)
        assert out.phase == Phase.INITIAL_ACCEPTED and out.f_trials == 10
        assert rows == [30]
        assert sum(rows) - out.f_trials == 20
        assert memory.run_trials == {0.5: 10, 0.1: 30}

    @pytest.mark.parametrize("search", ["two_phase", "armijo_wolfe"])
    def test_fresh_memory_starts_with_an_8_row_block(self, search):
        """Block sizes live in the run's memory, not in the oracle: on the
        oracle of the exhausted search, a search with a fresh memory starts
        its halving run with the first-run block of 8 rows, then 16."""
        rows = []
        oracle, _, (f_x, g_x, eps_f, eps_g) = self.exhausted_arwhead_search(rows)
        x, params, memory = oracle.problem.x0.copy(), LineSearchParams(), SearchMemory(10)
        bounds = (eps_f, eps_g) if search == "two_phase" else (0.0, 0.0)
        out = two_phase_search(oracle, x, -g_x, params, memory, f_x, g_x, *bounds)
        assert out.phase == Phase.INITIAL_ACCEPTED and out.f_trials == 10
        assert rows == [8, 16]
        assert memory.run_trials == {0.5: 10}


def run_bits(trace):
    """A run's records and counters, floats and arrays as exact bits."""

    def bits(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, np.ndarray):
            return value.tobytes()
        return value

    return (
        [tuple(bits(v) for v in dataclasses.astuple(r)) for r in trace.records],
        trace.termination_reason, trace.first_split_iteration, bits(trace.final_x),
        bits(trace.final_phi_true), bits(trace.final_grad_norm_true),
        trace.f_evals, trace.g_evals, trace.evals_to_threshold,
        bits(trace.max_f_noise), bits(trace.max_g_noise_norm),
    )


class TestRunWithRowsOnAndOff:
    """Block sizes carry over from one search to the next in the run's
    search memory, so a whole run, not only one search, must not see the
    blocks."""

    @pytest.mark.parametrize("name", ROW_NAMES)
    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("xi_f", [0.0, 1e-3])
    @pytest.mark.parametrize("xi_g", [0.0, 1e-3])
    def test_same_run(self, name, variant, xi_f, xi_g):
        config = SolverConfig(variant=variant, max_iters=60)
        spec = NoiseSpec(xi_f=xi_f, xi_g=xi_g, seed=3)
        traces = [
            run(dataclasses.replace(registry_lookup(name), f_rows=f_rows), spec, config)
            for f_rows in (True, False)
        ]
        assert run_bits(traces[0]) == run_bits(traces[1])
        assert len(traces[0].records) > 10


class TestStepCarriesItsValue:
    """Every search that takes a step hands back the noisy f it observed
    there, so the solver never evaluates the new iterate again."""

    @pytest.mark.parametrize("search", ["two_phase", "armijo_wolfe"])
    @pytest.mark.parametrize("xi", [0.0, 1e-3])
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        name=st.sampled_from(ROW_NAMES),
        seed=st.integers(0, 2**32 - 1),
        near_minimizer=st.booleans(),
        offset=st.integers(1, 8),
        scale=st.integers(-2, 8),
    )
    def test_f_alpha_is_f_at_the_step(self, search, xi, name, seed, near_minimizer, offset, scale):
        rng = np.random.default_rng(seed)
        prob = registry_lookup(name)
        x = minimizer_estimate(name) if near_minimizer else prob.x0
        x = x + 10.0**-offset * rng.standard_normal(prob.dim)
        p = -(10.0**scale) * prob.eval_g(x)
        out, _ = row_search(name, search, x, p, xi, xi, f_rows=False)
        if out.phase == Phase.ALPHA_FAILED or out.alpha == 0.0:
            return
        assert out.f_alpha is not None
        assert abs(out.f_alpha - prob.eval_f(x + out.alpha * p)) <= xi


class TestParamsValidation:
    def test_defaults(self):
        params = LineSearchParams()
        assert (params.c1, params.c2, params.c3) == (1e-4, 0.9, 0.5)
        assert params.n_split == 30

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            LineSearchParams(c1=0.95, c2=0.9)
        with pytest.raises(ValueError):
            LineSearchParams(c1=0.0)
        for c3 in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                LineSearchParams(c3=c3)

    def test_budgets_positive(self):
        with pytest.raises(ValueError):
            LineSearchParams(n_split=0)
        with pytest.raises(ValueError):
            LineSearchParams(max_ls_iters=0)
        with pytest.raises(ValueError):
            LineSearchParams(history=0)

    @pytest.mark.parametrize(
        "name", ["n_split", "max_ls_iters", "max_lengthening", "history"]
    )
    def test_bool_count_rejected(self, name):
        """bool is an Integral, but n_split = True would split after one
        trial."""
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got True$"):
            LineSearchParams(**{name: True})

    @pytest.mark.parametrize("name", ["c1", "c2", "c3"])
    def test_bool_real_rejected(self, name):
        """c3 = True once searched with c3 = 1.0."""
        with pytest.raises(ValueError, match=f"^{name} must be a real number, got True$"):
            LineSearchParams(**{name: True})

    @pytest.mark.parametrize("name", ["c1", "c2", "c3"])
    @pytest.mark.parametrize("value", ["0.1", None, 1j])
    def test_non_number_real_rejected(self, name, value):
        """A string once failed in the ordering test, as a TypeError that
        named no setting."""
        message = f"{name} must be a real number, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LineSearchParams(**{name: value})

    def test_settings_are_held_as_python_numbers(self):
        params = LineSearchParams(
            c1=Fraction(1, 8), c2=np.float32(0.5), c3=np.int64(2), n_split=np.int64(4),
            max_ls_iters=np.uint16(9), max_lengthening=np.int8(3), history=np.int32(2),
        )
        assert [params.c1, params.c2, params.c3] == [0.125, 0.5, 2.0]
        counts = [params.n_split, params.max_ls_iters, params.max_lengthening, params.history]
        assert counts == [4, 9, 3, 2]
        assert {type(value) for value in (params.c1, params.c2, params.c3)} == {float}
        assert {type(value) for value in counts} == {int}

    @pytest.mark.parametrize(
        "value", [10**400, -(10**400), Fraction(10**400, 7)], ids=["int", "-int", "Fraction"]
    )
    def test_constant_beyond_the_float_range_rejected(self, value):
        with pytest.raises(ValueError, match="^need 0 < c1 < c2 < 1$"):
            LineSearchParams(c1=value)
        with pytest.raises(ValueError, match="^c3 must be finite and > 0$"):
            LineSearchParams(c3=value)

    @pytest.mark.parametrize("name", ["n_split", "max_ls_iters"])
    def test_trial_budget_capped_at_300(self, name):
        assert getattr(LineSearchParams(**{name: 300}), name) == 300
        with pytest.raises(ValueError, match=f"^{name} must be <= 300$"):
            LineSearchParams(**{name: 301})


def rising_line_search(eps_g=0.0, **params):
    """Run ``two_phase_search`` at eps_f = 0 on f(t) = t from t = 0 along
    p = +1, uphill with g = 1, where no trial steplength above 0.0 passes
    the classical Armijo test at eps = 0, nor the plain decrease test that
    an unreliable direction (g.p = 1 > eps_g > 0) gets at eps_f = 0."""
    oracle = NoisyOracle(scalar_problem(lambda v: v, lambda v: 1.0), NoiseSpec())
    return two_phase_search(
        oracle, np.zeros(1), np.ones(1), LineSearchParams(**params), SearchMemory(10),
        0.0, np.ones(1), 0.0, eps_g,
    )


class TestNoZeroSteplength:
    """A budget long enough to halve or backtrack a trial steplength down to
    0.0 once ended a search accepted at alpha = 0.0, where the classical
    Armijo test holds on any f.  The budget cap rules it out."""

    def test_plain_search_budget_reaching_zero_rejected(self):
        """1,076 halvings ended INITIAL_ACCEPTED at alpha = 0.0."""
        with pytest.raises(ValueError, match="^max_ls_iters must be <= 300$"):
            rising_line_search(max_ls_iters=1076)

    def test_split_budget_reaching_zero_rejected(self):
        """30 halvings and 316 backtracking trials ended SPLIT_COMPLETED at
        alpha = 0.0."""
        with pytest.raises(ValueError, match="^max_ls_iters must be <= 300$"):
            rising_line_search(n_split=30, max_ls_iters=350)

    def test_plain_search_fails_at_the_cap(self):
        out = rising_line_search(max_ls_iters=300)
        assert (out.phase, out.alpha, out.f_trials) == (Phase.ALPHA_FAILED, 0.0, 300)

    @pytest.mark.parametrize("n_split", [1, 30, 150, 300])
    def test_two_phase_search_fails_at_the_cap(self, n_split):
        """With a gradient noise bound the search splits after ``n_split``
        halvings, and its backtracking spends the rest of the budget."""
        out = rising_line_search(eps_g=0.5, n_split=n_split, max_ls_iters=300)
        assert out.split
        assert (out.phase, out.alpha, out.f_trials) == (Phase.ALPHA_FAILED, 0.0, 300)


class TestSearchMemory:
    def test_empty_estimate_absent(self):
        memory = SearchMemory(5)
        assert memory.estimate is None and memory.run_trials == {}
