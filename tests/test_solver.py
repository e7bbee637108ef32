"""Solver drivers: all six variants, direction computation, the skip rule,
trace recording, diagnostics, and termination logic."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisyqn import solver
from noisyqn.linalg import (
    CurvaturePair,
    LimitedMemory,
    SymmetricMatrix,
    bfgs_inverse_update,
    two_loop_direction,
)
from noisyqn.linesearch import LineSearchOutcome, LineSearchParams, Phase, SearchMemory
from noisyqn.noise import NoiseSpec, NoisyOracle
from noisyqn.problems import Problem, make_quadratic, registry_lookup
from noisyqn.solver import (
    RunTrace,
    SolverConfig,
    SolverState,
    Variant,
    run,
    skip_condition,
)

NOISELESS = NoiseSpec()


def quick_config(variant, **kwargs):
    kwargs.setdefault("max_iters", 60)
    return SolverConfig(variant=variant, **kwargs)


def threshold_evals(trace, eps_f, eps_g):
    """The gradient evaluations made before the first iteration whose
    iterate has a true gap within eps_f (when eps_f > 0) or a true gradient
    norm within eps_g; None if none has."""
    before = 1  # the gradient at x0
    for record in trace.records:
        if (eps_f > 0.0 and record.gap <= eps_f) or record.grad_norm_true <= eps_g:
            return before
        before = record.cum_g_evals
    return None


def operator_state(inverse, direction, update):
    return SolverState(
        x=np.zeros(5), f_x=0.0, g_x=np.zeros(5), inverse=inverse,
        direction=direction, update=update, search=SearchMemory(10),
    )


class TestSearchDirection:
    def test_identity_gives_negated_gradient(self):
        """H starts as the identity, dense or as an empty limited memory, so
        every variant's first direction is -g."""
        for variant in Variant:
            seen = []
            run(make_quadratic(3, 1.0, 10.0, seed=1), NOISELESS,
                quick_config(variant, max_iters=1), seen.append)
            [ctx] = seen
            np.testing.assert_array_equal(ctx.search.p, -ctx.search.g_x)

    def test_limited_memory_matches_dense_with_full_history(self):
        """d = 5, every pair kept, H0 matched via gamma: the two-loop
        direction agrees with the dense update chain to 1e-10, each state
        updated and applied through its own two functions."""
        rng = np.random.default_rng(5)
        a = rng.standard_normal((5, 5))
        a = a @ a.T + 0.5 * np.eye(5)
        pairs = []
        for _ in range(5):
            s = rng.standard_normal(5)
            pairs.append(CurvaturePair(s, a @ s))

        lm = operator_state(LimitedMemory(10), two_loop_direction, LimitedMemory.push)
        for pair in pairs:
            lm.update(lm.inverse, pair)
        dense = operator_state(
            SymmetricMatrix(lm.inverse.gamma * np.eye(5)),
            SymmetricMatrix.matvec, bfgs_inverse_update,
        )
        for pair in pairs:
            dense.update(dense.inverse, pair)

        g = rng.standard_normal(5)
        p_lm = lm.direction(lm.inverse, g)
        p_dense = dense.direction(dense.inverse, g)
        assert np.linalg.norm(p_lm - p_dense) / np.linalg.norm(p_dense) <= 1e-10


class TestOneSearch:
    """Every variant runs ``two_phase_search``; the standard and skip
    variants at zero noise bounds, where it observes no curvature."""

    SPEC = NoiseSpec(xi_f=1e-3, xi_g=1e-2, seed=3)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_no_variant_calls_the_plain_search(self, variant, monkeypatch):
        def refuse(*args):
            raise AssertionError("armijo_wolfe_search called")

        monkeypatch.setattr(solver, "armijo_wolfe_search", refuse)
        trace = run(registry_lookup("ARWHEAD"), self.SPEC, quick_config(variant, max_iters=20))
        assert len(trace.records) == 20

    @pytest.mark.parametrize("variant", list(Variant))
    def test_only_a_noise_bound_observes(self, variant, monkeypatch):
        """Under noise, a tolerant run keeps curvature estimates; the
        others search at zero bounds and keep none."""
        memories = []

        class Kept(SearchMemory):
            def __init__(self, history):
                super().__init__(history)
                memories.append(self)

        monkeypatch.setattr(solver, "SearchMemory", Kept)
        run(registry_lookup("ARWHEAD"), self.SPEC, quick_config(variant, max_iters=20))
        [memory] = memories
        assert (memory.estimate is not None) is variant.noise_tolerant


class TestSkipCondition:
    def test_below_threshold_skips(self):
        """dg.p = 1 against 2 eps_g ||p|| = 2: skip."""
        assert skip_condition(
            np.array([1.0]), np.array([0.0]), np.array([1.0]), eps_g=1.0
        )

    def test_zero_eps_never_skips(self):
        assert not skip_condition(
            np.array([1e-300]), np.array([0.0]), np.array([1.0]), eps_g=0.0
        )

    def test_boundary_keeps_update(self):
        """dg.p equal to the threshold exactly: strict inequality, no skip."""
        assert not skip_condition(
            np.array([2.0]), np.array([0.0]), np.array([1.0]), eps_g=1.0
        )


class TestSingleIteration:
    def test_newton_step_on_identity_quadratic(self):
        """QUAD(2,1,1) from (3,4) with H = I: alpha = 1 is the exact Newton
        step; one iteration lands on the minimizer."""
        prob = make_quadratic(2, 1.0, 1.0, seed=0)
        start = np.array([3.0, 4.0])
        prob = Problem(
            name=prob.name, x0=start,
            eval_f=prob.eval_f, eval_g=prob.eval_g,
            phi_star=0.0,
        )
        trace = run(prob, NOISELESS, quick_config(Variant.BFGS, max_iters=1))
        final = trace.records[-1]
        assert final.alpha == 1.0
        assert trace.final_gap <= 1e-12
        assert float(np.linalg.norm(trace.final_x)) <= 1e-6


class TestNoiselessConvergence:
    def test_tridia_bfgs_deep_convergence(self):
        prob = registry_lookup("TRIDIA")
        trace = run(prob, NOISELESS, SolverConfig(variant=Variant.BFGS, max_iters=200))
        assert trace.final_gap <= 1e-10

    @pytest.mark.parametrize("variant", [Variant.LBFGS, Variant.BFGS_SKIP, Variant.LBFGS_E])
    def test_other_variants_make_progress(self, variant):
        prob = registry_lookup("TRIDIA")
        trace = run(prob, NOISELESS, SolverConfig(variant=variant, max_iters=200))
        assert trace.final_gap <= 1e-6

    def test_reruns_are_bit_identical(self):
        prob = registry_lookup("ARWHEAD")
        spec = NoiseSpec(xi_f=1e-3, xi_g=1e-3, seed=17)
        config = quick_config(Variant.BFGS_E)
        t1 = run(prob, spec, config)
        t2 = run(prob, spec, config)
        assert len(t1.records) == len(t2.records)
        for r1, r2 in zip(t1.records, t2.records):
            assert r1 == r2
        np.testing.assert_array_equal(t1.final_x, t2.final_x)
        assert t1.termination_reason == t2.termination_reason


class TestNoiselessEquivalence:
    @pytest.mark.parametrize(
        "plain,tolerant",
        [(Variant.BFGS, Variant.BFGS_E), (Variant.LBFGS, Variant.LBFGS_E)],
    )
    def test_e_variant_tracks_standard_exactly(self, plain, tolerant):
        """Zero noise: the noise-tolerant run retraces the standard one
        iterate for iterate, bit for bit."""
        prob = registry_lookup("TRIDIA")
        t_plain = run(prob, NOISELESS, SolverConfig(variant=plain, max_iters=40))
        t_tol = run(prob, NOISELESS, SolverConfig(variant=tolerant, max_iters=40))
        assert len(t_plain.records) == len(t_tol.records)
        for r1, r2 in zip(t_plain.records, t_tol.records):
            assert r1.phi_true == r2.phi_true
            assert r1.alpha == r2.alpha
        np.testing.assert_array_equal(t_plain.final_x, t_tol.final_x)


class TestSkippingVariant:
    def test_skip_leaves_matrix_unchanged(self):
        """Force the skip rule on every iteration (huge reported eps_g) and
        check H stays the identity while pair_action records the skip."""
        prob = make_quadratic(6, 1.0, 10.0, seed=2)
        spec = NoiseSpec(xi_g=1.0, omega=1e6, seed=3)

        seen = []

        def observer(ctx):
            seen.append(ctx.record.pair_action)

        trace = run(prob, spec, quick_config(Variant.BFGS_SKIP, max_iters=5), observer)
        assert "skipped" in seen
        assert all(action in ("skipped", None) for action in seen)

    def test_skip_never_updates_when_rule_holds(self):
        """Whenever the skip rule held, the applied action is 'skipped'."""
        prob = make_quadratic(10, 1.0, 50.0, seed=4)
        spec = NoiseSpec(xi_g=1e-2, seed=5)
        records = []

        def observer(ctx):
            records.append((ctx.skip_rule_held, ctx.record.pair_action))

        run(prob, spec, quick_config(Variant.BFGS_SKIP, max_iters=80), observer)
        held = [action for held, action in records if held]
        assert held, "expected the skip rule to fire at least once"
        assert all(action == "skipped" for action in held)

    def test_plain_bfgs_updates_despite_rule(self):
        """Plain BFGS applies updates even on pairs the skip rule would have
        rejected (evaluated here from the produced pair)."""
        prob = make_quadratic(10, 1.0, 50.0, seed=4)
        spec = NoiseSpec(xi_g=1e-2, seed=5)
        eps_g = math.sqrt(10) * 1e-2
        would_skip = []

        def observer(ctx):
            if ctx.pair is not None and ctx.record.pair_action == "updated":
                dg_p = float(ctx.pair.y @ ctx.search.p)
                threshold = 2.0 * eps_g * float(np.linalg.norm(ctx.search.p))
                would_skip.append(dg_p < threshold)

        run(prob, spec, quick_config(Variant.BFGS, max_iters=80), observer)
        assert any(would_skip)


class TestPairRule:
    """One rule for all six variants: a pair is used only when
    s.y > 1e-12 ||s|| ||y||, so a NaN s.y is dropped too."""

    # From g_x = (1, 1) and p = -g_x the step s = p meets y = g_beta - g_x
    # with the s.y given; every operand is exact in binary.
    G_BETA = {
        "tiny": (np.array([2.0, -(2.0**-44)]), 2.0**-44),  # 2.8e-14 ||s|| ||y||
        "nan": (np.array([np.nan, 0.0]), math.nan),
        "kept": (np.array([2.0, -(2.0**-30)]), 2.0**-30),  # 4.7e-10 ||s|| ||y||
    }

    @pytest.mark.parametrize("case", list(G_BETA))
    @pytest.mark.parametrize("variant", list(Variant))
    def test_pair_below_the_guard_is_dropped(self, variant, case, monkeypatch):
        g_x = np.array([1.0, 1.0])
        g_beta, sy = self.G_BETA[case]

        def search(oracle, x, p, *args):
            return LineSearchOutcome(
                x, p, 0.0, g_x, 0.0, 0.0, phase=Phase.INITIAL_ACCEPTED,
                alpha=1.0, beta=1.0, f_alpha=0.0, g_alpha=g_x, g_beta=g_beta,
            )

        monkeypatch.setattr(solver, "two_phase_search", search)
        flat = Problem(
            name="FLAT", x0=np.zeros(2),
            eval_f=lambda x: 0.0, eval_g=lambda x: g_x, phi_star=0.0,
        )
        seen = []
        trace = run(flat, NOISELESS, quick_config(variant, max_iters=1), seen.append)
        [ctx] = seen
        assert trace.termination_reason == "max_iterations"
        assert ctx.skip_rule_held is (False if variant.update_skipping else None)
        if case == "kept":
            assert ctx.pair.sy == sy
            assert ctx.record.pair_action == "updated"
        else:
            assert ctx.pair is None
            assert ctx.record.pair_action == "skipped"

    @pytest.mark.parametrize("variant", list(Variant))
    def test_pair_whose_y_norm_underflows_is_dropped(self, variant, monkeypatch):
        """s = (1e10, 0) and y = (1e-170, 0): s.y = 1e-160 > 0, but y.y
        underflows to 0, so the guard's 1e-12 ||s|| ||y|| is 0 and s.y clears
        it.  Every variant drops the pair, and the next direction is computed
        (L-BFGS's gamma would divide s.y by y.y = 0)."""
        g_x = np.array([-1e-160, 0.0])
        g_beta = g_x + np.array([1e-170, 0.0])
        s, y = 1e170 * -g_x, g_beta - g_x
        assert float(s @ y) > 0.0 and float(y @ y) == 0.0

        def search(oracle, x, p, *args):
            return LineSearchOutcome(
                x, p, 0.0, g_x, 0.0, 0.0, phase=Phase.INITIAL_ACCEPTED,
                alpha=1.0, beta=1e170, f_alpha=0.0, g_alpha=g_x, g_beta=g_beta,
            )

        monkeypatch.setattr(solver, "two_phase_search", search)
        flat = Problem(
            name="FLAT", x0=np.zeros(2),
            eval_f=lambda x: 0.0, eval_g=lambda x: g_x, phi_star=0.0,
        )
        seen = []
        trace = run(flat, NOISELESS, quick_config(variant, max_iters=2), seen.append)
        assert trace.termination_reason == "max_iterations"
        assert [ctx.record.pair_action for ctx in seen] == ["skipped", "skipped"]
        np.testing.assert_array_equal(seen[0].search.p, s / 1e170)
        np.testing.assert_array_equal(seen[1].search.p, s / 1e170)


class TestDiagnostics:
    def test_dense_hessian_stays_spd(self):
        prob = make_quadratic(8, 1.0, 20.0, seed=6)
        spec = NoiseSpec(xi_f=1e-4, xi_g=1e-4, seed=7)
        config = quick_config(Variant.BFGS_E, max_iters=50, diagnostics=True)
        trace = run(prob, spec, config)
        checked = 0
        for record in trace.records:
            if record.lambda_min_B is not None:
                assert record.lambda_min_B > 0.0
                assert record.lambda_max_B >= record.lambda_min_B
                checked += 1
            if record.kappa_H is not None:
                assert record.kappa_H >= 1.0
        assert checked > 10

    def test_diagnostics_off_leaves_fields_empty(self):
        prob = make_quadratic(4, 1.0, 5.0, seed=8)
        trace = run(prob, NOISELESS, quick_config(Variant.BFGS, max_iters=10))
        for record in trace.records:
            assert record.kappa_H is None
            assert record.lambda_min_B is None

    def test_lapack_failure_leaves_fields_empty(self, monkeypatch):
        """A LinAlgError from the eigenvalue diagnostics costs the record its
        diagnostic fields, not the run."""

        def fail(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(solver, "eigen_extremes", fail)
        prob = make_quadratic(4, 1.0, 5.0, seed=8)
        config = quick_config(Variant.BFGS, max_iters=5, diagnostics=True)
        trace = run(prob, NOISELESS, config)
        assert len(trace.records) == 5
        assert all(r.kappa_H is None and r.lambda_max_B is None for r in trace.records)

    def test_nonfinite_matrix_fails_before_diagnostics(self, monkeypatch):
        """An H holding an inf ends the run in numerical_failure at the
        direction check, before LAPACK is handed the matrix."""
        seen = []

        def poison(h, pair):
            h.dense[0, 0] = np.inf

        def extremes(h):
            seen.append(bool(np.all(np.isfinite(h.dense))))
            return (1.0, 1.0)

        monkeypatch.setattr(solver, "bfgs_inverse_update", poison)
        monkeypatch.setattr(solver, "eigen_extremes", extremes)
        prob = make_quadratic(4, 1.0, 5.0, seed=8)
        trace = run(prob, NOISELESS, quick_config(Variant.BFGS, diagnostics=True))
        assert trace.termination_reason == "numerical_failure"
        assert len(trace.records) == 1
        assert seen == [True]

    def test_limited_memory_has_no_dense_diagnostics(self):
        prob = make_quadratic(4, 1.0, 5.0, seed=8)
        config = quick_config(Variant.LBFGS, max_iters=10, diagnostics=True)
        trace = run(prob, NOISELESS, config)
        assert all(r.kappa_H is None for r in trace.records)


class TestSplitTracking:
    def test_first_split_iteration_matches_records(self):
        prob = registry_lookup("ARWHEAD")
        spec = NoiseSpec(xi_f=1e-3, xi_g=1e-3, seed=11)
        trace = run(prob, spec, SolverConfig(variant=Variant.BFGS_E, max_iters=150))
        first = trace.first_split_iteration
        assert first is not None
        for record in trace.records:
            if record.k < first:
                assert not record.split_active
        split_ks = [r.k for r in trace.records if r.split_active]
        assert split_ks and min(split_ks) == first

    def test_split_iteration_gradient_cost(self):
        """Gradient evaluations consumed by a split-phase iteration stay in
        the observed 2-6 band on ARWHEAD at xi_g = 1e-3."""
        prob = registry_lookup("ARWHEAD")
        spec = NoiseSpec(xi_g=1e-3, seed=13)
        trace = run(prob, spec, SolverConfig(variant=Variant.BFGS_E, max_iters=150))
        deltas = []
        for prev, cur in zip(trace.records, trace.records[1:]):
            if cur.split_active and cur.pair_action is not None:
                deltas.append(cur.cum_g_evals - prev.cum_g_evals)
        assert deltas, "expected split-phase iterations in this run"
        assert all(2 <= d <= 6 for d in deltas)

    def test_noiseless_run_never_splits(self):
        prob = registry_lookup("TRIDIA")
        trace = run(prob, NOISELESS, quick_config(Variant.BFGS_E, max_iters=30))
        assert trace.first_split_iteration is None

    def test_split_iteration_without_a_row_is_not_the_first_split(self, monkeypatch):
        """A split iteration whose step overflows the iterate ends the run
        before it gets a row, so no split iteration is reported."""

        def split_to_overflow(oracle, x, p, params, memory, f_x, g_x, eps_f, eps_g):
            outcome = LineSearchOutcome(x, p, f_x, g_x, eps_f, eps_g)
            outcome.phase, outcome.split, outcome.alpha = Phase.SPLIT_COMPLETED, True, 1e308
            return outcome

        monkeypatch.setattr(solver, "two_phase_search", split_to_overflow)
        c = np.array([1e3, -1e3])
        linear = Problem(
            name="LINEAR", eval_f=lambda x: float(c @ x), eval_g=lambda x: c.copy(),
            x0=np.zeros(2), phi_star=0.0,
        )
        with np.errstate(over="ignore"):
            trace = run(linear, NoiseSpec(xi_g=1e-3, seed=1), quick_config(Variant.BFGS_E))
        assert trace.termination_reason == "numerical_failure"
        assert trace.records == []
        assert trace.first_split_iteration is None


class TestTermination:
    def test_max_iterations(self):
        prob = registry_lookup("TRIDIA")
        trace = run(prob, NOISELESS, SolverConfig(variant=Variant.BFGS, max_iters=7))
        assert trace.termination_reason == "max_iterations"
        assert len(trace.records) == 7
        assert trace.records[-1].k == 6

    def test_gradient_budget(self):
        prob = registry_lookup("TRIDIA")
        config = SolverConfig(variant=Variant.BFGS, max_iters=500, g_eval_budget=40)
        trace = run(prob, NOISELESS, config)
        assert trace.termination_reason == "gradient_budget"
        assert trace.g_evals >= 40

    def test_stationary_point(self):
        flat = Problem(
            name="CONST", x0=np.zeros(2),
            eval_f=lambda x: 3.0, eval_g=lambda x: np.zeros(2),
            phi_star=3.0,
        )
        trace = run(flat, NOISELESS, quick_config(Variant.BFGS))
        assert trace.termination_reason == "stationary_point"

    def test_evals_to_threshold_uses_true_noise_levels(self):
        """With omega = 10 the method sees bounds ten times the true ones;
        evals_to_threshold still waits for the first iterate within the true
        levels, which comes after the first within the reported ones."""
        prob = make_quadratic(6, 1.0, 5.0, seed=9)
        spec = NoiseSpec(xi_f=1e-3, xi_g=1e-4, omega=10.0, seed=10)
        trace = run(prob, spec, SolverConfig(variant=Variant.BFGS_E, max_iters=400))
        eps_f, eps_g = 1e-3, math.sqrt(6) * 1e-4
        assert trace.evals_to_threshold is not None
        assert trace.evals_to_threshold == threshold_evals(trace, eps_f, eps_g)
        assert threshold_evals(trace, 10 * eps_f, 10 * eps_g) < trace.evals_to_threshold

    @pytest.mark.parametrize(
        "name, variant, xi_f, xi_g",
        [
            ("ARWHEAD", Variant.BFGS, 0.0, 0.0),
            ("ARWHEAD", Variant.LBFGS_E, 0.0, 0.0),
            ("ARWHEAD", Variant.BFGS_E, 0.0, 1e-3),
            ("ARWHEAD", Variant.LBFGS, 1e-3, 1e-3),
            ("CRAGGLVY", Variant.LBFGS, 0.0, 0.0),
            ("TRIDIA", Variant.BFGS_SKIP, 1e-3, 0.0),
        ],
    )
    def test_evals_to_threshold_matches_its_definition(self, name, variant, xi_f, xi_g):
        """evals_to_threshold is the gradient count before the first record
        within the true levels, read off the records.  Noiseless ARWHEAD and
        CRAGGLVY reach a gap of 0 with a gradient norm above 0, which at
        xi_f = 0 is no threshold."""
        prob = registry_lookup(name)
        spec = NoiseSpec(xi_f=xi_f, xi_g=xi_g, seed=3)
        trace = run(prob, spec, quick_config(variant, max_iters=150))
        eps_g = math.sqrt(prob.dim) * xi_g
        assert trace.evals_to_threshold == threshold_evals(trace, xi_f, eps_g)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_stagnation_on_exhausted_search(self, variant):
        """f is flat while g is not, so no step lowers f: without noise two
        failed searches of ``max_ls_iters`` trials stop any variant, after
        1 + 2 (60 + 1) f-evaluations; with gradient noise the retries see
        fresh draws and the run goes on.  At f = 1 the Armijo test passes by
        rounding once c1 alpha g.p is below half an ulp of f, and the
        Wolfe test then fails, so the search still fails."""
        config = quick_config(variant)
        for value in (0.0, 1.0):
            flat = Problem(
                name="FLAT", x0=np.zeros(2),
                eval_f=lambda x, value=value: value, eval_g=lambda x: np.array([1.0, -2.0]),
                phi_star=value,
            )
            trace = run(flat, NOISELESS, config)
            assert trace.termination_reason == "line_search_stagnation"
            assert [r.alpha for r in trace.records] == [0.0, 0.0]
            assert trace.f_evals == 1 + 2 * (config.ls.max_ls_iters + 1)
            noisy = run(flat, NoiseSpec(xi_g=1e-3, seed=1), quick_config(variant, max_iters=20))
            assert noisy.termination_reason == "max_iterations"

    @pytest.mark.parametrize("variant", [v for v in Variant if not v.noise_tolerant])
    def test_noiseless_standard_variant_stops_after_two_failures(self, variant):
        """On noiseless ARWHEAD a standard variant's search fails once the
        iterate is at the minimizer's rounding level; a retry would replay
        it, so the run ends on the second alpha = 0 row."""
        trace = run(registry_lookup("ARWHEAD"), NOISELESS, quick_config(variant))
        assert trace.termination_reason == "line_search_stagnation"
        alphas = [r.alpha for r in trace.records]
        assert alphas[-2:] == [0.0, 0.0]
        assert 0.0 not in alphas[:-2]

    @pytest.mark.parametrize("xi_f", [0.0, 1e-3])
    def test_underflowing_direction_ends_cleanly(self, xi_f):
        """Near DQDRTIC's minimizer the lbfgs-e direction underflows: beta
        p.p is 0 at k=125 without noise (p.p = 0) and at k=155 with f noise
        (0.5 * 5e-324).  No curvature estimate is pushed there, and the run
        reaches the minimizer instead of dividing by zero."""
        prob = registry_lookup("DQDRTIC")
        spec = NoiseSpec(xi_f=xi_f, seed=7)
        trace = run(prob, spec, quick_config(Variant.LBFGS_E, max_iters=200))
        assert trace.termination_reason == "stationary_point"
        assert trace.final_gap == 0.0


class TestTraceShape:
    def test_record_count_and_indices(self):
        """One record per executed iteration, indexed from zero."""
        prob = registry_lookup("TRIDIA")
        trace = run(prob, NOISELESS, SolverConfig(variant=Variant.BFGS, max_iters=12))
        assert [r.k for r in trace.records] == list(range(12))

    def test_cumulative_counters_non_decreasing(self):
        prob = registry_lookup("ARWHEAD")
        spec = NoiseSpec(xi_f=1e-3, xi_g=1e-3, seed=14)
        trace = run(prob, spec, quick_config(Variant.BFGS_E))
        for prev, cur in zip(trace.records, trace.records[1:]):
            assert cur.cum_f_evals >= prev.cum_f_evals
            assert cur.cum_g_evals >= prev.cum_g_evals
        assert trace.records[-1].cum_f_evals <= trace.f_evals
        assert trace.records[-1].cum_g_evals <= trace.g_evals

    def test_gap_is_true_objective_offset(self):
        prob = registry_lookup("TRIDIA")
        trace = run(prob, NOISELESS, quick_config(Variant.BFGS, max_iters=15))
        for record in trace.records:
            assert record.gap == pytest.approx(
                record.phi_true - prob.phi_star, abs=1e-14
            )

    def test_pair_action_vocabulary(self):
        prob = registry_lookup("ARWHEAD")
        spec = NoiseSpec(xi_f=1e-3, xi_g=1e-3, seed=15)
        for variant in Variant:
            trace = run(prob, spec, quick_config(variant, max_iters=40))
            for record in trace.records:
                assert record.pair_action in (None, "updated", "skipped", "lengthened")

    def test_noise_extremes_within_bounds(self):
        prob = registry_lookup("ARWHEAD")
        spec = NoiseSpec(xi_f=1e-3, xi_g=1e-3, seed=16)
        trace = run(prob, spec, quick_config(Variant.BFGS_E))
        assert 0.0 < trace.max_f_noise <= 1e-3
        assert 0.0 < trace.max_g_noise_norm <= math.sqrt(100) * 1e-3 + 1e-15


    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        name=st.sampled_from(["ARWHEAD", "TRIDIA"]),
        variant=st.sampled_from(list(Variant)),
        xi_f=st.sampled_from([0.0, 1e-3]),
        xi_g=st.sampled_from([0.0, 1e-3, 1e-1]),
        seed=st.integers(0, 2**16),
    )
    def test_trial_counts_equal_counter_deltas(self, name, variant, xi_f, xi_g, seed):
        """Seen by an observer, each iteration's line-search trial counts
        equal the oracle-counter deltas across the search, and the record's
        cumulative counters add to them only the re-observations at the new
        (or unchanged) iterate."""
        searches = []

        def counted(search):
            def wrapped(oracle, *args, **kwargs):
                f0, g0 = oracle.f_evals, oracle.g_evals
                out = search(oracle, *args, **kwargs)
                searches.append((out, oracle.f_evals - f0, oracle.g_evals - g0))
                return out

            return wrapped

        previous = [(1, 1)]  # run() observes f and g at x0 first

        def observer(ctx):
            out, f_delta, g_delta = searches[-1]
            assert (out.f_trials, out.g_trials) == (f_delta, g_delta)
            assert ctx.search is out
            stepped = out.phase != Phase.ALPHA_FAILED and out.alpha > 0.0
            f_after = int(not stepped or out.f_alpha is None)
            g_after = int(not stepped or out.g_alpha is None)
            f_before, g_before = previous[-1]
            record = ctx.record
            assert record.cum_f_evals - f_before == out.f_trials + f_after
            assert record.cum_g_evals - g_before == out.g_trials + g_after
            previous.append((record.cum_f_evals, record.cum_g_evals))

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "two_phase_search", counted(solver.two_phase_search))
            trace = run(
                registry_lookup(name),
                NoiseSpec(xi_f=xi_f, xi_g=xi_g, seed=seed),
                quick_config(variant, max_iters=25),
                observer,
            )
        assert len(searches) == len(trace.records) == len(previous) - 1
        assert previous[-1] == (trace.f_evals, trace.g_evals)


def bits(value):
    return float(value).hex()


class TestTraceValues:
    """The trace's true values come from the oracle's latest evaluation when
    it was made at the iterate, with the bits of evaluating the problem."""

    @pytest.mark.parametrize("name", ["ARWHEAD", "CRAGGLVY"])
    @pytest.mark.parametrize("variant", list(Variant))
    def test_true_values_have_the_problem_bits(self, name, variant):
        prob = registry_lookup(name)
        seen = []

        def observer(ctx):
            record = ctx.record
            assert bits(record.phi_true) == bits(prob.eval_f(ctx.search.x))
            assert bits(record.gap) == bits(prob.eval_f(ctx.search.x) - prob.phi_star)
            norm = np.linalg.norm(prob.eval_g(ctx.search.x))
            assert bits(record.grad_norm_true) == bits(norm)
            seen.append(record.k)

        spec = NoiseSpec(xi_f=1e-3, xi_g=1e-1, schedule="intermittent", n_noise=10, seed=6)
        trace = run(prob, spec, quick_config(variant, max_iters=40), observer)
        assert seen == list(range(len(trace.records))) and seen
        assert bits(trace.final_phi_true) == bits(prob.eval_f(trace.final_x))
        final_norm = np.linalg.norm(prob.eval_g(trace.final_x))
        assert bits(trace.final_grad_norm_true) == bits(final_norm)

    @pytest.mark.parametrize("variant", [v for v in Variant if not v.noise_tolerant])
    def test_standard_variants_evaluate_nothing_for_the_trace(self, variant):
        """Their iterate is the point of the latest f and g evaluation, so a
        run calls the problem exactly once per counted evaluation."""
        calls = []
        base = registry_lookup("TRIDIA")

        def eval_f(x):
            calls.append("f")
            return base.eval_f(x)

        def eval_g(x):
            calls.append("g")
            return base.eval_g(x)

        prob = Problem(
            name=base.name, eval_f=eval_f, eval_g=eval_g, x0=base.x0, phi_star=base.phi_star
        )
        spec = NoiseSpec(xi_f=1e-3, xi_g=1e-3, seed=8)
        trace = run(prob, spec, quick_config(variant, max_iters=30))
        assert len(trace.records) > 0
        assert calls.count("f") == trace.f_evals
        assert calls.count("g") == trace.g_evals


class TestTraceGradientLookups:
    """The tolerant variants' beta loop evaluates g after the accepted
    point; the oracle's short gradient history still covers the iterate."""

    @pytest.mark.parametrize("name", ["ARWHEAD", "CRAGGLVY"])
    @pytest.mark.parametrize("variant", list(Variant))
    def test_trace_adds_few_gradient_evaluations(self, name, variant):
        base = registry_lookup(name)
        calls = []

        def eval_g(x):
            calls.append("g")
            return base.eval_g(x)

        prob = dataclasses.replace(base, eval_g=eval_g)
        spec = NoiseSpec(xi_f=1e-3, xi_g=1e-1, schedule="intermittent", n_noise=10, seed=6)
        trace = run(prob, spec, quick_config(variant, max_iters=150))
        assert len(trace.records) == 150
        assert len(calls) - trace.g_evals <= 2


class TestConfigValidation:
    def test_bad_memory(self):
        with pytest.raises(ValueError):
            SolverConfig(variant=Variant.LBFGS, memory=0)

    @pytest.mark.parametrize("memory", [1001, 2**70])
    def test_memory_above_the_cap(self, memory):
        with pytest.raises(ValueError, match="memory must be <= 1000"):
            SolverConfig(variant=Variant.LBFGS, memory=memory)
        assert SolverConfig(variant=Variant.LBFGS, memory=1000).memory == 1000

    def test_bad_max_iters(self):
        with pytest.raises(ValueError):
            SolverConfig(variant=Variant.BFGS, max_iters=0)

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            SolverConfig(variant=Variant.BFGS, g_eval_budget=0)

    @pytest.mark.parametrize("name", ["memory", "max_iters", "g_eval_budget"])
    def test_bool_count_rejected(self, name):
        """bool is an Integral, but True is no count: a memory of True
        reached ``np.zeros((True, True))`` in ``LimitedMemory``."""
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got True$"):
            SolverConfig(variant=Variant.LBFGS, **{name: True})

    @pytest.mark.parametrize("value", ["no", "", 0, 1, None, np.True_])
    def test_diagnostics_must_be_a_bool(self, value):
        """A string such as "no" would otherwise turn the diagnostics on by
        its truthiness."""
        with pytest.raises(ValueError, match="^diagnostics must be a bool, got "):
            SolverConfig(variant=Variant.BFGS, diagnostics=value)
        for flag in (False, True):
            assert SolverConfig(variant=Variant.BFGS, diagnostics=flag).diagnostics is flag

    def test_variant_from_string(self):
        assert Variant("bfgs-e") is Variant.BFGS_E
        assert Variant("lbfgs-skip") is Variant.LBFGS_SKIP
        with pytest.raises(ValueError):
            Variant("newton")

    def test_variant_properties(self):
        assert Variant.LBFGS_E.limited_memory
        assert Variant.LBFGS_E.noise_tolerant
        assert not Variant.LBFGS_E.update_skipping
        assert Variant.BFGS_SKIP.update_skipping
        assert not Variant.BFGS.limited_memory
