"""Two-phase line search: the relaxed sufficient-decrease test, noise-control
gates, bisection initial phase, split-phase lengthening, and the curvature
tracker feeding the lengthening floor."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisyqn.linesearch import (
    CurvatureTracker,
    InitialResult,
    LineSearchParams,
    Phase,
    armijo_wolfe_search,
    initial_phase,
    noise_control_holds,
    relaxed_armijo,
    split_phase,
    tracker_update,
    two_phase_search,
    _trial_run,
)
from noisyqn.noise import NoiseSpec, NoisyOracle
from noisyqn.problems import Problem, make_quadratic, registered_names, registry_lookup
from noisyqn.solver import SolverConfig, Variant, run


def scalar_problem(f, g, name="SCALAR"):
    return Problem(
        name=name,
        dim=1,
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


class TestNoiseControl:
    def test_threshold_arithmetic(self):
        """Difference 5 against threshold 2(1+c3) eps_g ||p|| = 3."""
        g_old = np.array([0.0])
        g_new = np.array([5.0])
        p = np.array([1.0])
        assert noise_control_holds(g_new, g_old, p, 1.0, eps_g=1.0, c3=0.5, symmetric=True)
        assert noise_control_holds(g_new, g_old, p, 1.0, eps_g=1.0, c3=0.5, symmetric=False)

    def test_just_below_threshold_fails(self):
        g_old = np.array([0.0])
        g_new = np.array([2.999999])
        p = np.array([1.0])
        assert not noise_control_holds(g_new, g_old, p, 1.0, eps_g=1.0, c3=0.5, symmetric=True)

    def test_zero_eps_g_always_holds(self):
        g_old = np.array([1.0, 2.0])
        g_new = np.array([1.0, 2.0 + 1e-300])
        p = np.array([0.0, 1.0])
        assert noise_control_holds(g_new, g_old, p, 1.0, eps_g=0.0, c3=0.5, symmetric=True)

    def test_sign_sensitivity(self):
        """A difference of -5: the absolute-value form passes, the signed
        form does not."""
        g_old = np.array([0.0])
        g_new = np.array([-5.0])
        p = np.array([1.0])
        assert noise_control_holds(g_new, g_old, p, 1.0, eps_g=1.0, c3=0.5, symmetric=True)
        assert not noise_control_holds(g_new, g_old, p, 1.0, eps_g=1.0, c3=0.5, symmetric=False)


class TestRelaxedArmijo:
    def test_reliable_direction_first_trial(self):
        assert relaxed_armijo(
            0, f_new=0.4, f_old=0.5, g_dot_p=-1.0, alpha=1.0,
            eps_f=0.0, eps_g=0.5, p_norm=1.0, c1=1e-4,
        )

    def test_later_trials_gain_noise_margin(self):
        """i >= 1 adds 2 eps_f of slack to the right-hand side."""
        kwargs = dict(
            f_new=0.5 + 1e-3, f_old=0.5, g_dot_p=-1.0, alpha=1.0,
            eps_f=1e-3, eps_g=0.5, p_norm=1.0, c1=1e-4,
        )
        assert relaxed_armijo(1, **kwargs)
        assert not relaxed_armijo(0, **kwargs)

    def test_unreliable_direction_uses_simple_decrease(self):
        """|g.p| below eps_g ||p||: any decrease counts."""
        assert relaxed_armijo(
            0, f_new=0.49, f_old=0.5, g_dot_p=-0.3, alpha=1.0,
            eps_f=0.0, eps_g=0.5, p_norm=1.0, c1=1e-4,
        )

    def test_unreliable_direction_rejects_increase_on_first_trial(self):
        assert not relaxed_armijo(
            0, f_new=0.51, f_old=0.5, g_dot_p=-0.3, alpha=1.0,
            eps_f=0.0, eps_g=0.5, p_norm=1.0, c1=1e-4,
        )

    def test_zero_eps_g_applies_classical_test_uphill(self):
        """With eps_g = 0 and g.p > 0 the classical bound f_old + c1 alpha g.p
        applies, not strict decrease: no change in f passes, a rise past the
        bound fails."""
        kwargs = dict(
            f_old=0.5, g_dot_p=1e-3, alpha=1.0,
            eps_f=0.0, eps_g=0.0, p_norm=1.0, c1=1e-4,
        )
        assert relaxed_armijo(0, f_new=0.5, **kwargs)
        assert relaxed_armijo(0, f_new=0.5 + 1e-7, **kwargs)
        assert not relaxed_armijo(0, f_new=0.5 + 2e-7, **kwargs)

    @pytest.mark.parametrize("f_new", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("i", [0, 1])
    @pytest.mark.parametrize("g_dot_p", [-1.0, 1.0])
    @pytest.mark.parametrize("eps_g", [0.0, 0.5])
    def test_non_finite_value_fails(self, f_new, i, g_dot_p, eps_g):
        """NaN and both infinities fail at every trial index and either sign
        of g.p, on the classical test and on plain decrease alike; -inf
        would pass either comparison."""
        assert not relaxed_armijo(
            i, f_new=f_new, f_old=0.5, g_dot_p=g_dot_p, alpha=1.0,
            eps_f=1e-3, eps_g=eps_g, p_norm=1.0, c1=1e-4,
        )


class TestTrialRunDecision:
    """``_trial_run`` stops at the first trial that passes
    ``relaxed_armijo`` with its index in the whole search, with rows on
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
        expected = (len(picks), alphas[-1], values[-1] + 0.0, False)
        for i, (value, alpha) in enumerate(zip(values, alphas)):
            if relaxed_armijo(first + i, value, f_x, g, alpha, eps_f, eps_g, p_norm, c1):
                expected = (i + 1, alpha, value + 0.0, True)
                break

        queue = iter(values)

        def eval_f(x):
            if x.ndim == 2:
                return np.array([next(queue) for _ in x])
            return next(queue)

        prob = Problem(
            name="TABLE", dim=1, x0=np.zeros(1), eval_f=eval_f,
            eval_g=np.zeros_like, phi_star=0.0, f_rows=f_rows,
        )
        oracle = NoisyOracle(prob, NoiseSpec())
        state = InitialResult(np.zeros(1), np.ones(1), f_x, np.array([g]), eps_f, eps_g)
        state.f_trials = first
        got = _trial_run(oracle, state, start, factor, len(picks), c1)
        assert repr(got) == repr(expected)
        assert oracle.f_evals == got[0]


class TestTrackerUpdate:
    def test_push_arithmetic(self):
        """mu-bar = (dg.p) / (beta ||p||^2) = 2 / (1*4) = 0.5."""
        tracker = CurvatureTracker(10)
        p = np.array([2.0, 0.0])
        tracker_update(
            tracker, beta=1.0, p=p,
            g_new=np.array([1.0, 0.0]), g_old=np.array([0.0, 0.0]),
            wolfe_held=True,
        )
        assert tracker.estimate == pytest.approx(0.5, rel=1e-15)

    def test_gating(self):
        tracker = CurvatureTracker(10)
        tracker_update(
            tracker, beta=1.0, p=np.array([1.0]),
            g_new=np.array([1.0]), g_old=np.array([0.0]),
            wolfe_held=False,
        )
        assert tracker.estimate is None

    @pytest.mark.parametrize(
        "p", [0.0, math.sqrt(5e-324)], ids=["zero", "underflow"]
    )
    def test_zero_scale_pushes_nothing(self, p):
        """beta ||p||^2 = 0 (p = 0, or 0.5 * p.p with p.p = 5e-324 rounding
        to 0) gives no estimate instead of dividing by zero."""
        tracker = CurvatureTracker(10)
        tracker_update(
            tracker, beta=0.5, p=np.array([p]),
            g_new=np.array([1.0]), g_old=np.array([0.0]),
            wolfe_held=True,
        )
        assert tracker.estimate is None

    def test_min_over_ring(self):
        tracker = CurvatureTracker(10)
        p = np.array([1.0])
        for mu in (0.5, 0.2, 0.9):
            tracker_update(
                tracker, beta=1.0, p=p,
                g_new=np.array([mu]), g_old=np.array([0.0]),
                wolfe_held=True,
            )
        assert tracker.estimate == pytest.approx(0.2, rel=1e-15)

    def test_ring_evicts_beyond_history(self):
        tracker = CurvatureTracker(2)
        p = np.array([1.0])
        for mu in (0.1, 0.5, 0.9):
            tracker_update(
                tracker, beta=1.0, p=p,
                g_new=np.array([mu]), g_old=np.array([0.0]),
                wolfe_held=True,
            )
        # 0.1 has been evicted; min of {0.5, 0.9}
        assert tracker.estimate == pytest.approx(0.5, rel=1e-15)

    def test_nonpositive_curvature_never_stored(self):
        tracker = CurvatureTracker(4)
        p = np.array([1.0])
        tracker_update(
            tracker, beta=1.0, p=p,
            g_new=np.array([-1.0]), g_old=np.array([0.0]),
            wolfe_held=True,
        )
        assert tracker.estimate is None


class TestInitialPhase:
    def test_bisection_bracket_after_the_halving_run(self):
        """f = -t up to t = 0.9, then 10, with slope -1 throughout: alpha = 1
        fails Armijo, 0.5 passes it but not Wolfe.  The bisection then goes
        on inside [0.5, 1], the halving run's last failure being its upper
        end: 0.75, 0.875, then 0.9375, which fails Armijo again."""
        prob = scalar_problem(lambda t: -t if t < 0.9 else 10.0, lambda t: -1.0)
        oracle = NoisyOracle(prob, NoiseSpec())
        res = initial_phase(
            oracle, np.zeros(1), np.ones(1), LineSearchParams(),
            f_x=0.0, g_x=np.array([-1.0]), eps_f=0.0, eps_g=0.0, max_trials=5,
        )
        assert not res.accepted and res.f_trials == 5 and res.g_trials == 3
        assert res.alpha == 0.9375 and res.alpha_best == 0.875

    def test_unit_step_accepted_immediately(self):
        """phi = x^2/2 from x = 1 along p = -1: alpha = 1 lands on the
        minimizer and passes all three gates on the first trial."""
        oracle = half_square_oracle()
        res = initial_phase(
            oracle, np.array([1.0]), np.array([-1.0]),
            LineSearchParams(), f_x=0.5, g_x=np.array([1.0]),
            eps_f=0.0, eps_g=0.0,
        )
        assert res.accepted
        assert res.alpha == 1.0
        assert res.f_trials == 1
        assert res.g_trials == 1

    def test_bisection_from_large_start(self):
        """With p = -4 the first trial overshoots to x = -3: the steps walk
        4 -> 2 -> 1 (alpha 1 -> 0.5 -> 0.25) with the upper bracket
        shrinking, three function trials in all."""
        oracle = half_square_oracle()
        res = initial_phase(
            oracle, np.array([1.0]), np.array([-4.0]),
            LineSearchParams(), f_x=0.5, g_x=np.array([1.0]),
            eps_f=0.0, eps_g=0.0,
        )
        assert res.accepted
        assert res.alpha == 0.25
        assert res.f_trials == 3

    def test_alpha_doubles_without_upper_bracket(self):
        """phi = x^2/2 from x = 4 along p = -1 with c2 = 0.1: Wolfe needs
        alpha >= 3.6, so the search doubles 1 -> 2 -> 4 and accepts 4."""
        oracle = half_square_oracle()
        res = initial_phase(
            oracle, np.array([4.0]), np.array([-1.0]),
            LineSearchParams(c2=0.1), f_x=8.0, g_x=np.array([4.0]),
            eps_f=0.0, eps_g=0.0,
        )
        assert res.accepted
        assert res.alpha == 4.0
        assert res.f_trials == 3

    def test_noise_control_failure_triggers_split(self):
        """With a flat-enough gradient change, |dg.p| < 2(1+c3) eps_g ||p||
        at the first trial: returns a split trigger after one gradient
        evaluation."""
        oracle = half_square_oracle()
        res = initial_phase(
            oracle, np.array([1.0]), np.array([-1.0]),
            LineSearchParams(), f_x=0.5, g_x=np.array([1.0]),
            eps_f=0.0, eps_g=10.0,
        )
        assert not res.accepted
        assert res.g_trials == 1

    def test_best_trial_tracked_for_split(self):
        oracle = half_square_oracle()
        res = initial_phase(
            oracle, np.array([1.0]), np.array([-1.0]),
            LineSearchParams(), f_x=0.5, g_x=np.array([1.0]),
            eps_f=0.0, eps_g=10.0,
        )
        assert res.alpha_best == 1.0
        assert res.f_best == pytest.approx(0.0)


def handoff(oracle, x, p, eps_g, alpha, alpha_best=None):
    """What an unaccepted bisection hands to the split phase: the line
    through ``x`` along ``p`` and a last trial at steplength ``alpha``."""
    xv = np.array([x])
    return InitialResult(
        xv, np.array([p]), oracle.problem.eval_f(xv), oracle.problem.eval_g(xv),
        eps_f=0.0, eps_g=eps_g, alpha=alpha, alpha_best=alpha_best,
    )


class TestSplitPhase:
    def test_doubling_without_tracker(self):
        """Signed control needs beta >= 0.3 on phi = x^2/2 with eps_g = 0.1,
        c3 = 0.5; with an empty tracker (no curvature estimate), doubling
        from 0.25 lands on 0.5 after two trials."""
        oracle = half_square_oracle()
        out = split_phase(
            oracle, LineSearchParams(), CurvatureTracker(10),
            handoff(oracle, 0.0, 1.0, eps_g=0.1, alpha=0.25, alpha_best=0.25),
        )
        assert out.beta == pytest.approx(0.5)
        assert out.g_trials == 2

    def test_tracker_floor_jumps_past_doubling(self):
        """mu = 1 gives floor beta-bar = 2(1.5)(0.1)/1 = 0.3; the successor
        max{2*0.25, 0.3} = 0.5 holds in one trial."""
        oracle = half_square_oracle()
        tracker = CurvatureTracker(10)
        tracker.push(1.0)
        out = split_phase(
            oracle, LineSearchParams(), tracker,
            handoff(oracle, 0.0, 1.0, eps_g=0.1, alpha=0.25, alpha_best=0.25),
        )
        assert out.beta == pytest.approx(0.5)
        assert out.g_trials == 1

    def test_alpha_best_reused_without_function_trials(self):
        oracle = half_square_oracle()
        before = oracle.f_evals
        out = split_phase(
            oracle, LineSearchParams(), CurvatureTracker(10),
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
            oracle, LineSearchParams(), CurvatureTracker(10),
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
            oracle, LineSearchParams(max_ls_iters=8), CurvatureTracker(10),
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
            oracle, LineSearchParams(max_ls_iters=8), CurvatureTracker(10), init
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
            oracle, LineSearchParams(max_lengthening=6), CurvatureTracker(10),
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
        out = armijo_wolfe_search(
            oracle, np.zeros(1), np.ones(1), LineSearchParams(),
            f_x=0.0, g_x=np.array([1e-17]),
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
        out = armijo_wolfe_search(
            oracle, np.zeros(1), np.ones(1), LineSearchParams(max_ls_iters=7),
            f_x=0.0, g_x=np.array([-1.0]),
        )
        assert out.phase == Phase.ALPHA_FAILED
        assert (out.alpha, out.beta, out.f_alpha, out.g_alpha) == (0.0, None, None, None)
        assert (out.f_trials, out.g_trials) == (7, 0)
        assert oracle.f_evals == 7


class TestTwoPhaseSearch:
    @pytest.mark.parametrize("name", ["ARWHEAD", "TRIDIA", "ENGVAL1", "FLAT"])
    def test_noiseless_reduction_to_plain_bisection(self, name):
        """With both noise bounds at zero the two-phase search returns the
        plain Armijo-Wolfe steplength, trial for trial.  FLAT searches
        uphill (g.p > 0) on a constant objective: both searches apply the
        classical Armijo test there and take the unit step."""
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
                oracle_a, x, p, params, CurvatureTracker(10),
                f_x=f_x, g_x=g_x, eps_f=0.0, eps_g=0.0,
            )
            plain = armijo_wolfe_search(oracle_b, x, p, params, f_x=f_x, g_x=g_x)
            assert two.alpha == plain.alpha
            assert two.f_trials == plain.f_trials
            assert two.phase == Phase.INITIAL_ACCEPTED
            assert two.beta == two.alpha
            x = x + two.alpha * p

    def test_returned_beta_satisfies_signed_control(self):
        """On a noisy quadratic every returned beta passes the signed
        noise-control test against the true gradient change it observed."""
        prob = make_quadratic(20, 1.0, 50.0, seed=3)
        oracle = NoisyOracle(prob, NoiseSpec(xi_g=1e-3, seed=5))
        eps_f, eps_g = oracle.reported_bounds()
        params = LineSearchParams()
        tracker = CurvatureTracker(10)
        x = prob.x0.copy()
        checked = 0
        for _ in range(60):
            f_x = oracle.noisy_f(x)
            g_x = oracle.noisy_g(x)
            p = -g_x
            out = two_phase_search(
                oracle, x, p, params, tracker,
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
        tracker = CurvatureTracker(10)
        floor = 2.0 * params.c3 * eps_g / big_m
        x = prob.x0.copy()
        for _ in range(60):
            f_x = oracle.noisy_f(x)
            g_x = oracle.noisy_g(x)
            p = -g_x
            out = two_phase_search(
                oracle, x, p, params, tracker,
                f_x=f_x, g_x=g_x, eps_f=0.0, eps_g=eps_g,
            )
            if out.beta is not None:
                step = out.beta * float(np.linalg.norm(p))
                assert step >= floor * (1 - 1e-9)
            if out.alpha > 0.0:
                x = x + out.alpha * p

    def test_trial_counters_match_oracle_deltas(self):
        prob = make_quadratic(10, 1.0, 20.0, seed=1)
        oracle = NoisyOracle(prob, NoiseSpec(xi_f=1e-3, xi_g=1e-3, seed=2))
        eps_f, eps_g = oracle.reported_bounds()
        params = LineSearchParams()
        tracker = CurvatureTracker(10)
        x = prob.x0.copy()
        for _ in range(25):
            f_x = oracle.noisy_f(x)
            g_x = oracle.noisy_g(x)
            p = -g_x
            f0, g0 = oracle.f_evals, oracle.g_evals
            out = two_phase_search(
                oracle, x, p, params, tracker,
                f_x=f_x, g_x=g_x, eps_f=eps_f, eps_g=eps_g,
            )
            assert out.f_trials == oracle.f_evals - f0
            assert out.g_trials == oracle.g_evals - g0
            if out.alpha > 0.0:
                x = x + out.alpha * p


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
    """One ``search`` along p from x on a registry problem with block
    evaluation of the fixed trial runs on or off; returns (outcome, oracle).
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
    params = LineSearchParams()
    if search == "two_phase":
        eps_f, eps_g = oracle.reported_bounds()
        tracker = CurvatureTracker(10)
        out = two_phase_search(oracle, x, p, params, tracker, f_x, g_x, eps_f, eps_g)
    else:
        out = armijo_wolfe_search(oracle, x, p, params, f_x, g_x)
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


    def test_carried_block_size_takes_one_kernel_call(self):
        """Uphill from ARWHEAD's start, a two-phase search spends its whole
        budget: 30 halvings, then 30 backtracking trials.  The next halving
        run on the same oracle starts with a block of 30 rows, so the
        downhill search after it evaluates its 10 halvings in one call and
        leaves the other 20 rows unused."""
        prob = registry_lookup("ARWHEAD")
        rows = []

        def counted(points):
            rows.append(len(points) if points.ndim == 2 else 1)
            return prob.eval_f(points)

        oracle = NoisyOracle(
            dataclasses.replace(prob, eval_f=counted), NoiseSpec(xi_g=1e-3, seed=4)
        )
        params, tracker = LineSearchParams(), CurvatureTracker(10)
        x = prob.x0.copy()
        f_x, g_x = oracle.noisy_f(x), oracle.noisy_g(x)
        eps_f, eps_g = oracle.reported_bounds()
        out = two_phase_search(oracle, x, g_x, params, tracker, f_x, g_x, eps_f, eps_g)
        assert out.phase == Phase.ALPHA_FAILED and out.f_trials == 60
        assert oracle.run_trials == {0.5: 30, 0.1: 30}
        del rows[:]
        out = two_phase_search(oracle, x, -g_x, params, tracker, f_x, g_x, eps_f, eps_g)
        assert out.phase == Phase.INITIAL_ACCEPTED and out.f_trials == 10
        assert rows == [30]
        assert sum(rows) - out.f_trials == 20
        assert oracle.run_trials == {0.5: 10, 0.1: 30}


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
    """Block sizes carry over from one search to the next on an oracle, so
    a whole run, not only one search, must not see the blocks."""

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


class TestCurvatureTracker:
    def test_empty_estimate_absent(self):
        assert CurvatureTracker(5).estimate is None

    def test_push_rejects_nonpositive(self):
        tracker = CurvatureTracker(5)
        with pytest.raises(ValueError):
            tracker.push(0.0)
        with pytest.raises(ValueError):
            tracker.push(-1.0)
