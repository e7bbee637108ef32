"""Kernels: dense symmetric matrices, curvature pairs, the inverse update,
the two-loop recursion, and eigenvalue extremes."""

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


def random_spd(rng, d, scale=1.0):
    a = rng.standard_normal((d, d))
    return scale * (a @ a.T) + 0.1 * np.eye(d)


def dense_from_pairs(pairs, gamma, d):
    """Oracle: build H by explicit updates from H0 = gamma * I."""
    h = SymmetricMatrix(gamma * np.eye(d))
    for pair in pairs:
        bfgs_inverse_update(h, pair)
    return h


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
    def test_from_step_caches_dot(self):
        s = np.array([1.0, 2.0])
        y = np.array([3.0, -1.0])
        pair = CurvaturePair.from_step(s, y)
        assert pair.sy == float(s @ y)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            CurvaturePair.from_step(np.ones(2), np.ones(3))


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
            pair = CurvaturePair.from_step(s, y)
            mem.push(pair)
            assert mem.gamma == pytest.approx(pair.sy / float(y @ y), rel=1e-15)

    def test_eviction_order(self):
        mem = LimitedMemory(2)
        pairs = [
            CurvaturePair.from_step(np.array([float(i + 1), 0.0]), np.array([1.0, 0.0]))
            for i in range(3)
        ]
        for p in pairs:
            mem.push(p)
        assert mem.pairs == (pairs[1], pairs[2])  # oldest first

    def test_rejects_nonpositive_curvature(self):
        mem = LimitedMemory(2)
        with pytest.raises(ValueError):
            mem.push(CurvaturePair.from_step(np.array([1.0, 0.0]), np.array([-1.0, 0.0])))

    def test_gamma_needs_a_nonzero_y_norm(self):
        """s = (1e10, 0), y = (1e-170, 0): s.y = 1e-160 > 0, so the memory
        takes the pair, but y.y underflows to 0 and gamma would divide by
        it.  The solver's pair rule keeps such a pair out (see
        ``test_solver.py::TestPairRule``); the memory itself does not."""
        pair = CurvaturePair.from_step(np.array([1e10, 0.0]), np.array([1e-170, 0.0]))
        assert pair.sy == 1e-160 and norm(pair.y) == 0.0
        mem = LimitedMemory(2)
        mem.push(pair)
        with pytest.raises(ZeroDivisionError):
            two_loop_direction(mem, np.ones(2))


def identity(d):
    return SymmetricMatrix(np.eye(d))


class TestBfgsInverseUpdate:
    def test_identity_fixed_point(self):
        """s = y = e1 collapses the update back to the identity."""
        e1 = np.array([1.0, 0.0])
        h = updated(identity(2), CurvaturePair.from_step(e1, e1))
        np.testing.assert_allclose(h.dense, np.eye(2), atol=1e-15)

    def test_hand_worked_2d(self):
        """s = (1,0), y = (2,0) on H = I gives diag(1/2, 1)."""
        pair = CurvaturePair.from_step(np.array([1.0, 0.0]), np.array([2.0, 0.0]))
        h = updated(identity(2), pair)
        np.testing.assert_allclose(h.dense, np.diag([0.5, 1.0]), atol=1e-15)
        np.testing.assert_allclose(h.matvec(pair.y), pair.s, atol=1e-15)

    def test_updates_the_array_in_place(self):
        h = identity(2)
        array = h.dense
        pair = CurvaturePair.from_step(np.array([1.0, 0.0]), np.array([2.0, 0.0]))
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
            bfgs_inverse_update(h, CurvaturePair.from_step(s, y))
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
                bfgs_inverse_update(h, CurvaturePair.from_step(s, y))
                lo, _ = eigen_extremes(h)
                assert lo > 0.0

    def test_result_exactly_symmetric(self):
        rng = np.random.default_rng(13)
        h = SymmetricMatrix(random_spd(rng, 6))
        s = rng.standard_normal(6)
        y = s + 0.1 * rng.standard_normal(6)
        bfgs_inverse_update(h, CurvaturePair.from_step(s, y))
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
            bfgs_inverse_update(h, CurvaturePair.from_step(np.array(s), np.array(y)))
        assert h.dense.tobytes() == before


@st.composite
def spd_and_pair(draw):
    """A random SPD H and a pair (s, y) whose angle keeps s.y well above 0."""
    d = draw(st.integers(1, 12))
    unit = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)
    a = draw(arrays(np.float64, (d, d), elements=unit))
    s = draw(arrays(np.float64, d, elements=unit))
    y = s + 0.5 * draw(arrays(np.float64, d, elements=unit))
    assume(np.linalg.norm(s) >= 0.1)
    assume(float(s @ y) >= 0.1 * np.linalg.norm(s) * np.linalg.norm(y))
    h = SymmetricMatrix(a @ a.T + 0.5 * np.eye(d))
    return h, CurvaturePair.from_step(s, y)


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
        assert np.array_equal(h.dense, expected)

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
        bfgs_inverse_update(h, CurvaturePair.from_step(s, y))
        scaled = SymmetricMatrix(dense.copy())
        bfgs_inverse_update(scaled, CurvaturePair.from_step(2.0**k * s, 2.0**k * y))
        assert np.array_equal(scaled.dense, h.dense)


def orthogonal_complement_pair(rng, d):
    """A pair with s.y = y.y, so the limited-memory gamma is exactly 1."""
    y = rng.standard_normal(d)
    v = rng.standard_normal(d)
    v -= (v @ y) / (y @ y) * y
    return CurvaturePair.from_step(y + v, y)


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
            pair = CurvaturePair.from_step(s, y)
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
                pair = CurvaturePair.from_step(s, y)
                pairs.append(pair)
                mem.push(pair)
            dense = dense_from_pairs(pairs, mem.gamma, d)
            g = rng.standard_normal(d)
            expected = dense.matvec(g)
            got = two_loop_direction(mem, g)
            scale = max(1.0, float(np.linalg.norm(expected)))
            assert np.linalg.norm(got - expected) / scale <= 1e-10


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
