"""Kernels: dense symmetric matrices, curvature pairs, the inverse update,
the compact L-BFGS product against the two-loop recursion, and eigenvalue
extremes."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from noisyqn.linalg import (
    CurvaturePair,
    LimitedMemory,
    SymmetricMatrix,
    bfgs_inverse_update,
    SERIAL_BLAS_MAX_ORDER,
    _openblas_thread_controls,
    blas_threads_for,
    eigen_extremes,
    norm,
    two_loop_direction,
)
from noisyqn.noise import NoiseSpec
from noisyqn.problems import registry_lookup
from noisyqn.solver import SolverConfig, Variant, run


def random_spd(rng, d, scale=1.0):
    a = rng.standard_normal((d, d))
    return scale * (a @ a.T) + 0.1 * np.eye(d)


def dense_from_pairs(pairs, gamma, d):
    """Oracle: build H by explicit updates from H0 = gamma * I."""
    h = SymmetricMatrix(gamma * np.eye(d))
    for pair in pairs:
        bfgs_inverse_update(h, pair)
    return h


def two_loop(s, y, g):
    """H g by the two-loop recursion (Nocedal & Wright, Algorithm 7.4), in
    the dtype of the arrays, with H0 = (s.y / y.y) I of the newest pair.

    ``s`` and ``y`` hold k >= 1 pairs, oldest first, along their
    second-to-last axis; any leading axes are batch axes, shared with
    ``g``'s.  The reference for ``two_loop_direction``."""

    def dot(a, b):
        return (a * b).sum(axis=-1)

    sy = dot(s, y)
    q = g.copy()
    alphas = {}
    for i in reversed(range(s.shape[-2])):
        alphas[i] = dot(s[..., i, :], q) / sy[..., i]
        q -= alphas[i][..., None] * y[..., i, :]
    q *= (sy[..., -1] / dot(y[..., -1, :], y[..., -1, :]))[..., None]
    for i in range(s.shape[-2]):
        beta = dot(y[..., i, :], q) / sy[..., i]
        q += (alphas[i] - beta)[..., None] * s[..., i, :]
    return q


def updated(h, pair):
    """``h`` after the update with ``pair``, for tests that chain calls."""
    bfgs_inverse_update(h, pair)
    return h


class TestNorm:
    """``norm`` has ``np.linalg.norm``'s bits on every 1-D float vector."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        v=arrays(
            np.float64,
            st.integers(0, 40),
            elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        )
    )
    @example(v=np.zeros(3))
    @example(v=np.array([-0.0]))
    @example(v=np.full(4, 5e-324))
    @example(v=np.array([1e-160, 3e-170]))
    @example(v=np.array([1e200, -1e200]))
    @example(v=np.array([1.7e308, 1.0]))
    @example(v=np.array([np.inf, np.nan]))
    @example(v=np.array([-np.nan, 1.0]))
    def test_same_bits_as_numpy(self, v):
        with np.errstate(over="ignore", invalid="ignore"):  # both warn alike
            ours, numpys = np.float64(norm(v)), np.float64(np.linalg.norm(v))
        assert ours.tobytes() == numpys.tobytes()


class TestSymmetricMatrix:
    def test_holds_its_array(self):
        a = random_spd(np.random.default_rng(0), 6)
        assert SymmetricMatrix(a).dense is a

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(2)
        for d in (1, 3, 7):
            a = random_spd(rng, d)
            m = SymmetricMatrix(a)
            v = rng.standard_normal(d)
            np.testing.assert_allclose(m.matvec(v), a @ v, rtol=1e-14)


class TestCurvaturePair:
    def test_sy_is_computed_from_s_and_y(self):
        s = np.array([1.0, 2.0])
        y = np.array([3.0, -1.0])
        pair = CurvaturePair(s, y)
        assert pair.sy == float(s @ y)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.integers(1, 40).flatmap(
            lambda d: st.tuples(
                arrays(np.float64, d, elements=st.floats(allow_nan=True, allow_infinity=True)),
                arrays(np.float64, d, elements=st.floats(allow_nan=True, allow_infinity=True)),
            )
        )
    )
    def test_sy_has_the_bits_of_the_dot(self, pair_arrays):
        s, y = pair_arrays
        with np.errstate(all="ignore"):
            expected = float(s @ y)
            sy = CurvaturePair(s, y).sy
        assert np.float64(sy).tobytes() == np.float64(expected).tobytes()

    def test_sy_is_not_an_argument(self):
        with pytest.raises(TypeError):
            CurvaturePair(np.ones(2), np.ones(2), sy=1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            CurvaturePair(np.ones(2), np.ones(3))


class TestLimitedMemory:
    def test_gamma_is_one_when_empty(self):
        assert LimitedMemory(5).gamma == 1.0

    def test_gamma_follows_newest_pair(self):
        mem = LimitedMemory(3)
        rng = np.random.default_rng(3)
        for _ in range(4):
            y = rng.standard_normal(4)
            s = y + 0.1 * rng.standard_normal(4)
            if float(s @ y) <= 0:
                continue
            pair = CurvaturePair(s, y)
            mem.push(pair)
            assert mem.gamma == pytest.approx(pair.sy / float(y @ y), rel=1e-15)

    def test_eviction_order(self):
        """A third push into a memory of two evicts the oldest pair: the
        direction has the bits of a memory that only ever held the last two,
        and differs from one that keeps all three."""
        rng = np.random.default_rng(12)
        pairs = []
        while len(pairs) < 3:
            s, y = rng.standard_normal(4), rng.standard_normal(4)
            if float(s @ y) > 0.0:
                pairs.append(CurvaturePair(s, y))
        evicted, fresh, full = LimitedMemory(2), LimitedMemory(2), LimitedMemory(3)
        for p in pairs:
            evicted.push(p)
            full.push(p)
        for p in pairs[1:]:
            fresh.push(p)
        g = rng.standard_normal(4)
        got = two_loop_direction(evicted, g)
        np.testing.assert_array_equal(got, two_loop_direction(fresh, g))
        assert not np.allclose(got, two_loop_direction(full, g))

    def test_rejects_nonpositive_curvature(self):
        mem = LimitedMemory(2)
        with pytest.raises(ValueError):
            mem.push(CurvaturePair(np.array([1.0, 0.0]), np.array([-1.0, 0.0])))

    def test_gamma_needs_a_nonzero_y_norm(self):
        """s = (1e10, 0), y = (1e-170, 0): s.y = 1e-160 > 0 but y.y
        underflows to 0.  The scale-free pair has v.v = 1e-180, so gamma =
        1 / v.v and the direction are finite, and the direction matches a
        long-double two-loop.  The solver's pair rule still keeps such a
        pair out (see ``test_solver.py::TestPairRule``)."""
        pair = CurvaturePair(np.array([1e10, 0.0]), np.array([1e-170, 0.0]))
        assert pair.sy == 1e-160 and norm(pair.y) == 0.0
        mem = LimitedMemory(2)
        mem.push(pair)
        g = np.ones(2)
        got = two_loop_direction(mem, g)
        assert np.isfinite(got).all()
        long = np.longdouble
        want = two_loop(np.array([pair.s], long), np.array([pair.y], long), g.astype(long))
        assert np.linalg.norm(got - want) / np.linalg.norm(want) <= 1e-12


def identity(d):
    return SymmetricMatrix(np.eye(d))


class TestBfgsInverseUpdate:
    def test_identity_fixed_point(self):
        """s = y = e1 collapses the update back to the identity."""
        e1 = np.array([1.0, 0.0])
        h = updated(identity(2), CurvaturePair(e1, e1))
        np.testing.assert_allclose(h.dense, np.eye(2), atol=1e-15)

    def test_hand_worked_2d(self):
        """s = (1,0), y = (2,0) on H = I gives diag(1/2, 1)."""
        pair = CurvaturePair(np.array([1.0, 0.0]), np.array([2.0, 0.0]))
        h = updated(identity(2), pair)
        np.testing.assert_allclose(h.dense, np.diag([0.5, 1.0]), atol=1e-15)
        np.testing.assert_allclose(h.matvec(pair.y), pair.s, atol=1e-15)

    def test_updates_the_array_in_place(self):
        h = identity(2)
        array = h.dense
        pair = CurvaturePair(np.array([1.0, 0.0]), np.array([2.0, 0.0]))
        assert bfgs_inverse_update(h, pair) is None
        assert h.dense is array
        np.testing.assert_allclose(array, np.diag([0.5, 1.0]), atol=1e-15)

    def test_secant_condition(self):
        """H' y = s to 1e-10 for random SPD H and pairs y = A s."""
        rng = np.random.default_rng(7)
        a = random_spd(rng, 5)
        for _ in range(25):
            h = SymmetricMatrix(random_spd(rng, 5))
            s = rng.standard_normal(5)
            y = a @ s
            bfgs_inverse_update(h, CurvaturePair(s, y))
            err = np.linalg.norm(h.matvec(y) - s) / np.linalg.norm(s)
            assert err <= 1e-10

    def test_preserves_positive_definiteness(self):
        rng = np.random.default_rng(11)
        for d in (2, 4, 8):
            h = SymmetricMatrix(random_spd(rng, d))
            for _ in range(20):
                s = rng.standard_normal(d)
                y = s + 0.5 * rng.standard_normal(d)
                if float(s @ y) <= 1e-8:
                    continue
                bfgs_inverse_update(h, CurvaturePair(s, y))
                lo, _ = eigen_extremes(h)
                assert lo > 0.0

    def test_result_exactly_symmetric(self):
        rng = np.random.default_rng(13)
        h = SymmetricMatrix(random_spd(rng, 6))
        s = rng.standard_normal(6)
        y = s + 0.1 * rng.standard_normal(6)
        bfgs_inverse_update(h, CurvaturePair(s, y))
        assert np.array_equal(h.dense, h.dense.T)

    @pytest.mark.parametrize(
        "s, y",
        [
            ([1.0, 0.0], [0.0, 1.0]),  # s.y = 0
            ([1.0, 0.0], [-1.0, 0.0]),  # s.y < 0
            ([1.0, 1.0, 1.0], [2.0, 2.0, 2.0]),  # wrong dimension
        ],
    )
    def test_rejected_pair_leaves_h_unchanged(self, s, y):
        h = SymmetricMatrix(random_spd(np.random.default_rng(31), 2))
        before = h.dense.tobytes()
        with pytest.raises(ValueError):
            bfgs_inverse_update(h, CurvaturePair(np.array(s), np.array(y)))
        assert h.dense.tobytes() == before


@st.composite
def spd_and_pair(draw):
    """A random SPD H and a pair (s, y) whose angle keeps s.y well above 0."""
    d = draw(st.integers(1, 12))
    unit = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)
    a = draw(arrays(np.float64, (d, d), elements=unit))
    s = draw(arrays(np.float64, d, elements=unit))
    y = s + 0.5 * draw(arrays(np.float64, d, elements=unit))
    assume(np.linalg.norm(s) >= 0.1 and np.linalg.norm(y) > 0.0)
    assume(float(s @ y) >= 0.1 * np.linalg.norm(s) * np.linalg.norm(y))
    h = SymmetricMatrix(a @ a.T + 0.5 * np.eye(d))
    return h, CurvaturePair(s, y)


@st.composite
def dyadic_spd_and_pair(draw):
    """Like ``spd_and_pair``, on entries k / 256 with |k| <= 256.

    H, s.y, H y and y.Hy are then exact, and scaled by 2^j with
    |j| <= 500 they stay exact (subnormal at worst), so the only roundings
    left are those of the update itself."""
    d = draw(st.integers(1, 12))
    unit = st.integers(-256, 256).map(lambda k: k / 256)
    a = draw(arrays(np.float64, (d, d), elements=unit))
    s = draw(arrays(np.float64, d, elements=unit))
    y = s + 0.5 * draw(arrays(np.float64, d, elements=unit))
    assume(np.linalg.norm(s) >= 0.1)
    assume(float(s @ y) >= 0.1 * np.linalg.norm(s) * np.linalg.norm(y))
    return a @ a.T + 0.5 * np.eye(d), s, y


def raw_inverse_update(h, s, y):
    """The scale-free inverse BFGS update, term for term, on plain ndarrays."""
    sy = float(s @ y)
    root = 1.0 / math.sqrt(sy)
    hy = h @ y
    u = root * s
    cross = np.outer(u, root * hy)
    updated = h - (cross + cross.T)
    updated += (float(y @ hy) / sy + 1.0) * np.outer(u, u)
    return updated


def textbook_inverse_update(h, s, y):
    """Nocedal & Wright (6.17): (I - rho s y^T) H (I - rho y s^T) + rho s s^T."""
    rho = 1.0 / float(s @ y)
    left = np.eye(len(s)) - rho * np.outer(s, y)
    return left @ h @ left.T + rho * np.outer(s, s)


class TestDenseUpdateProperties:
    """Symmetry comes from the arithmetic of the update, not from storage."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(spd_and_pair())
    def test_update_is_exactly_symmetric(self, case):
        h, pair = case
        bfgs_inverse_update(h, pair)
        assert np.array_equal(h.dense, h.dense.T)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(spd_and_pair())
    def test_update_is_positive_definite(self, case):
        h, pair = case
        bfgs_inverse_update(h, pair)
        np.linalg.cholesky(h.dense)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(spd_and_pair())
    def test_update_matches_raw_formula_bit_for_bit(self, case):
        h, pair = case
        expected = raw_inverse_update(h.dense.copy(), pair.s, pair.y)
        bfgs_inverse_update(h, pair)
        assert h.dense.tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(spd_and_pair())
    def test_update_matches_textbook_formula(self, case):
        h, pair = case
        expected = textbook_inverse_update(h.dense, pair.s, pair.y)
        bfgs_inverse_update(h, pair)
        scale = np.abs(expected).max()
        np.testing.assert_allclose(h.dense, expected, rtol=0.0, atol=1e-12 * scale)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(dyadic_spd_and_pair(), st.integers(-500, 500))
    def test_update_is_invariant_under_power_of_two_scaling(self, case, k):
        """(s, y) and (2^k s, 2^k y) give the same bits: at |k| >= 256 the
        s.y of the scaled pair is below 1e-154 or above 1e154."""
        dense, s, y = case
        h = SymmetricMatrix(dense.copy())
        bfgs_inverse_update(h, CurvaturePair(s, y))
        scaled = SymmetricMatrix(dense.copy())
        bfgs_inverse_update(scaled, CurvaturePair(2.0**k * s, 2.0**k * y))
        assert np.array_equal(scaled.dense, h.dense)


def orthogonal_complement_pair(rng, d):
    """A pair with s.y = y.y, so the limited-memory gamma is exactly 1."""
    y = rng.standard_normal(d)
    v = rng.standard_normal(d)
    v -= (v @ y) / (y @ y) * y
    return CurvaturePair(y + v, y)


class TestTwoLoopDirection:
    def test_empty_memory_is_identity(self):
        g = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(two_loop_direction(LimitedMemory(4), g), g)

    def test_single_pair_matches_dense_update(self):
        """One stored pair with gamma = 1 reproduces the explicit update of I."""
        rng = np.random.default_rng(17)
        pair = orthogonal_complement_pair(rng, 3)
        mem = LimitedMemory(4)
        mem.push(pair)
        assert mem.gamma == pytest.approx(1.0, rel=1e-12)
        g = rng.standard_normal(3)
        expected = updated(identity(3), pair).matvec(g)
        np.testing.assert_allclose(two_loop_direction(mem, g), expected, rtol=1e-12)

    def test_eight_pairs_match_dense_recursion(self):
        rng = np.random.default_rng(19)
        a = random_spd(rng, 6)
        mem = LimitedMemory(10)
        pairs = []
        while len(pairs) < 8:
            s = rng.standard_normal(6)
            y = a @ s
            pair = CurvaturePair(s, y)
            pairs.append(pair)
            mem.push(pair)
        dense = dense_from_pairs(pairs, mem.gamma, 6)
        g = rng.standard_normal(6)
        expected = dense.matvec(g)
        got = two_loop_direction(mem, g)
        assert np.linalg.norm(got - expected) / np.linalg.norm(expected) <= 1e-10

    def test_randomized_equivalence_with_dense(self):
        """100 random cases, d <= 20, k <= t pairs: the recursion tracks the
        dense oracle to relative 1e-10."""
        rng = np.random.default_rng(23)
        for _ in range(100):
            d = int(rng.integers(1, 21))
            t = int(rng.integers(1, 11))
            k = int(rng.integers(0, t + 1))
            mem = LimitedMemory(t)
            pairs = []
            a = random_spd(rng, d)
            while len(pairs) < k:
                s = rng.standard_normal(d)
                y = a @ s
                pair = CurvaturePair(s, y)
                pairs.append(pair)
                mem.push(pair)
            dense = dense_from_pairs(pairs, mem.gamma, d)
            g = rng.standard_normal(d)
            expected = dense.matvec(g)
            got = two_loop_direction(mem, g)
            scale = max(1.0, float(np.linalg.norm(expected)))
            assert np.linalg.norm(got - expected) / scale <= 1e-10


@st.composite
def dyadic_memory_case(draw):
    """A memory capacity, up to twice as many pairs and a vector g.  The
    pairs are on entries k / 256 with |k| <= 256 and keep s.y well above 0,
    so s.y stays exact when s and y are scaled by 2^j with |j| <= 500 (see
    ``dyadic_spd_and_pair``)."""
    d = draw(st.integers(1, 12))
    capacity = draw(st.integers(1, 6))
    unit = st.integers(-256, 256).map(lambda k: k / 256)
    pairs = []
    for _ in range(draw(st.integers(1, 2 * capacity))):
        s = draw(arrays(np.float64, d, elements=unit))
        y = s + 0.5 * draw(arrays(np.float64, d, elements=unit))
        assume(np.linalg.norm(s) >= 0.1 and np.linalg.norm(y) > 0.0)
        assume(float(s @ y) >= 0.1 * np.linalg.norm(s) * np.linalg.norm(y))
        pairs.append((s, y))
    g = draw(arrays(np.float64, d, elements=st.floats(-1.0, 1.0, allow_subnormal=False)))
    return capacity, pairs, g


class TestCompactProduct:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(dyadic_memory_case(), st.integers(-500, 500))
    def test_direction_is_invariant_under_power_of_two_scaling(self, case, k):
        """(s, y) and (2^k s, 2^k y) give a direction with the same bits:
        the memory keeps s / sqrt(s.y) and y / sqrt(s.y), which do not
        change.  At |k| >= 256 the s.y of a scaled pair is below 1e-154 or
        above 1e154."""
        capacity, pairs, g = case
        directions = []
        for scale in (1.0, 2.0**k):
            mem = LimitedMemory(capacity)
            for s, y in pairs:
                mem.push(CurvaturePair(scale * s, scale * y))
            directions.append(two_loop_direction(mem, g))
        assert directions[0].tobytes() == directions[1].tobytes()

    def test_accuracy_on_arwhead_histories(self):
        """The pairs and gradients of arwhead-budget's lbfgs and lbfgs-e
        cells at noise seed 2 (ARWHEAD, xi_g in {1e-1, 1e-3, 1e-5}, 3000
        gradient evaluations): the worst relative error of the compact
        direction against a long-double two-loop is at most twice the
        float64 two-loop's.  The two float64 forms are not compared with
        each other: these histories are ill-conditioned enough that any
        two float64 orderings differ by far more than roundoff."""
        problem = registry_lookup("ARWHEAD")
        errors = {"compact": 0.0, "two-loop": 0.0}
        directions = 0
        for method in ("lbfgs", "lbfgs-e"):
            config = SolverConfig(variant=Variant(method), g_eval_budget=3000, max_iters=20000)
            for xi_g in (1e-1, 1e-3, 1e-5):
                seen = []  # (pushes before the iteration, g, compact H g)
                pushed = []

                def observe(ctx):
                    seen.append((len(pushed), ctx.search.g_x, -ctx.search.p))
                    if ctx.pair is not None:
                        pushed.append(ctx.pair)

                run(problem, NoiseSpec(xi_g=xi_g, seed=2), config, observe)
                directions += len(seen)
                for key, value in history_errors(pushed, seen, config.memory).items():
                    errors[key] = max(errors[key], value)
        assert directions > 5000
        assert errors["compact"] <= 2.0 * errors["two-loop"], errors


def history_errors(pushed, seen, capacity):
    """The worst relative errors of the compact and float64 two-loop
    directions against a long-double two-loop, over the iterations of one
    run with at least one stored pair, batched by memory length."""
    s_all = np.array([pair.s for pair in pushed])
    y_all = np.array([pair.y for pair in pushed])
    worst = {"compact": 0.0, "two-loop": 0.0}
    by_length = {}
    for count, g, compact in seen:
        length = min(count, capacity)
        if length:
            by_length.setdefault(length, []).append((count, g, compact))
    for length, rows in by_length.items():
        for start in range(0, len(rows), 256):
            chunk = rows[start : start + 256]
            window = np.array([count - length for count, _, _ in chunk])[:, None] + np.arange(length)
            g = np.array([g for _, g, _ in chunk])
            compact = np.array([c for _, _, c in chunk])
            exact = two_loop(
                s_all[window].astype(np.longdouble),
                y_all[window].astype(np.longdouble),
                g.astype(np.longdouble),
            )
            plain = two_loop(s_all[window], y_all[window], g)
            scale = np.linalg.norm(exact.astype(np.float64), axis=1)
            for key, got in (("compact", compact), ("two-loop", plain)):
                error = np.linalg.norm((got - exact).astype(np.float64), axis=1) / scale
                worst[key] = max(worst[key], float(error.max()))
    return worst


class TestEigenExtremes:
    def test_identity(self):
        assert eigen_extremes(identity(4)) == (1.0, 1.0)

    def test_diagonal(self):
        m = SymmetricMatrix(np.diag([2.0, 5.0]))
        lo, hi = eigen_extremes(m)
        assert lo == pytest.approx(2.0, abs=1e-12)
        assert hi == pytest.approx(5.0, abs=1e-12)

    def test_hand_solved_2x2(self):
        """[[2,1],[1,2]] has eigenvalues 1 and 3."""
        m = SymmetricMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        lo, hi = eigen_extremes(m)
        assert lo == pytest.approx(1.0, rel=1e-10)
        assert hi == pytest.approx(3.0, rel=1e-10)

    def test_diagonal_exact_to_1e12(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            d = int(rng.integers(2, 12))
            diag = rng.uniform(0.5, 10.0, size=d)
            lo, hi = eigen_extremes(SymmetricMatrix(np.diag(diag)))
            assert lo == pytest.approx(diag.min(), rel=1e-12)
            assert hi == pytest.approx(diag.max(), rel=1e-12)

    def test_large_orders_dispatch(self):
        """A 60 x 60 SPD matrix: the extremes are the ends of its spectrum."""
        rng = np.random.default_rng(37)
        a = random_spd(rng, 60)
        lo, hi = eigen_extremes(SymmetricMatrix(a))
        ref = np.linalg.eigvalsh(a)
        assert lo == pytest.approx(ref[0], rel=1e-8)
        assert hi == pytest.approx(ref[-1], rel=1e-8)


class TestBlasThreadsFor:
    @pytest.fixture
    def blas_threads(self):
        controls = _openblas_thread_controls()
        if controls is None:
            pytest.skip("numpy carries no OpenBLAS of its own")
        return controls[0]

    def test_one_thread_below_the_order_limit(self, blas_threads):
        before = blas_threads()
        with blas_threads_for(SERIAL_BLAS_MAX_ORDER - 1):
            assert blas_threads() == 1
        assert blas_threads() == before

    def test_large_orders_keep_the_thread_count(self, blas_threads):
        before = blas_threads()
        with blas_threads_for(SERIAL_BLAS_MAX_ORDER):
            assert blas_threads() == before
        assert blas_threads() == before

    def test_restored_after_error(self, blas_threads):
        before = blas_threads()
        with pytest.raises(ZeroDivisionError):
            with blas_threads_for(100):
                1 / 0
        assert blas_threads() == before
