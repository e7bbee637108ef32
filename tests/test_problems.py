"""Test-problem registry: objective values, analytic gradients, synthetic
quadratics, and the finite-difference gradient audit."""

import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisyqn.problems import (
    Problem,
    _power,
    UnknownProblemError,
    check_gradient,
    make_quadratic,
    registered_names,
    register,
    registry_lookup,
)

ALL_NAMES = (
    "ARWHEAD",
    "ENGVAL1",
    "CRAGGLVY",
    "TRIDIA",
    "DQDRTIC",
    "WOODS",
    "NONDIA",
    "GENROSE",
)


ROW_NAMES = tuple(name for name in ALL_NAMES if registry_lookup(name).f_rows)

# A last coordinate whose square differs in the last bit between libm pow
# (the scalar ``v ** 2``) and array squaring (``np.square``, ``x * x``), by
# enough to change ARWHEAD's value at x0 with this last coordinate.
POW_SQUARE_SPLIT = float.fromhex("-0x1.12748e19cc7a0p+1")


def assert_rows_match(prob, points):
    """``eval_f`` of the (k, d) stack equals ``eval_f`` of each row, bit for
    bit (NaN and infinities included)."""
    with np.errstate(over="ignore", invalid="ignore"):
        stacked = prob.eval_f(points)
        one_by_one = np.array([prob.eval_f(row.copy()) for row in points])
    assert stacked.shape == (len(points),)
    assert stacked.tobytes() == one_by_one.tobytes()


def seeded_points(problem, count=5, scale=0.1, seed=99):
    """Smooth-region sample points near the standard start."""
    rng = np.random.default_rng(seed)
    return [problem.x0 + scale * rng.standard_normal(problem.dim) for _ in range(count)]


class TestRegistry:
    def test_all_standard_problems_present(self):
        names = registered_names()
        for name in ALL_NAMES:
            assert name in names

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownProblemError):
            registry_lookup("WATSON")

    def test_unknown_error_message_is_clean(self):
        with pytest.raises(UnknownProblemError) as exc_info:
            registry_lookup("WATSON")
        msg = str(exc_info.value)
        assert "WATSON" in msg and not msg.startswith(("'", '"'))

    def test_duplicate_registration_rejected(self):
        demo = registry_lookup("ARWHEAD")
        with pytest.raises(ValueError):
            register("ARWHEAD", lambda: demo)

    def test_standard_dimension(self):
        for name in ALL_NAMES:
            assert registry_lookup(name).dim == 100

    @pytest.mark.parametrize("name", [*ALL_NAMES, "QUAD(5,1,10)"])
    def test_dim_is_read_from_x0(self, name):
        prob = registry_lookup(name)
        assert prob.dim == len(prob.x0)
        assert dataclasses.replace(prob, x0=prob.x0[:3]).dim == 3

    def test_positional_problem_is_a_type_error(self):
        """A dimension given before the callables would shift every later
        argument by one."""
        prob = registry_lookup("TRIDIA")
        with pytest.raises(TypeError):
            Problem("X", 3, prob.eval_f, prob.eval_g, np.zeros(3), 0.0)

    def test_lookup_is_case_sensitive_contract(self):
        prob = registry_lookup("ARWHEAD")
        assert prob.name == "ARWHEAD"


class TestStartPoint:
    """A Problem's x0 is a non-empty 1-D array of real numbers."""

    @pytest.mark.parametrize(
        "x0, described",
        [
            (np.zeros((2, 2)), "shape (2, 2) of float64"),
            (np.array([]), "shape (0,) of float64"),
            (np.array([1.0 + 2.0j, 3.0]), "shape (2,) of complex128"),
            (np.array([True, False]), "shape (2,) of bool"),
            ([[1.0, 2.0], [3.0]], "shape (2,) of object"),
            (5.0, "shape () of float64"),
        ],
        ids=["2-d", "empty", "complex", "bool", "ragged", "scalar"],
    )
    def test_bad_x0_is_named(self, x0, described):
        """A 2-D x0 ended in a TypeError inside the run, an empty one as a
        stationary point after 0 iterations, and a complex one lost its
        imaginary part with a ComplexWarning."""
        prob = registry_lookup("TRIDIA")
        message = f"x0 must be a non-empty 1-D array of real numbers, got {described}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(prob, x0=x0)

    @pytest.mark.parametrize(
        "x0", [[1.0, 2.0, 3.0], np.arange(3), np.arange(3, dtype=np.uint8)],
        ids=["list", "int", "uint8"],
    )
    def test_list_and_integer_x0_pass(self, x0):
        prob = dataclasses.replace(registry_lookup("TRIDIA"), x0=x0)
        assert prob.dim == 3


class TestReferenceFields:
    """``phi_star`` is a finite real number and ``f_rows`` a bool."""

    @pytest.mark.parametrize(
        "phi_star", ["0", None, True, math.nan, math.inf, -math.inf, 1j],
        ids=["str", "none", "bool", "nan", "inf", "-inf", "complex"],
    )
    def test_bad_phi_star_is_named(self, phi_star):
        """A string phi_star once ended every run in a TypeError at the first
        gap; a NaN one would make every gap NaN."""
        message = f"phi_star must be a finite real number, got {phi_star!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(registry_lookup("TRIDIA"), phi_star=phi_star)

    @pytest.mark.parametrize("phi_star", [0, -3, 2.5, np.float64(1.0)])
    def test_real_phi_star_passes(self, phi_star):
        prob = dataclasses.replace(registry_lookup("TRIDIA"), phi_star=phi_star)
        assert prob.phi_star == phi_star

    @pytest.mark.parametrize(
        "f_rows", ["no", 1, 0, None, np.bool_(True)], ids=["str", "1", "0", "none", "numpy"]
    )
    def test_non_bool_f_rows_is_named(self, f_rows):
        """The truthy string "no" once sent a kernel that cannot take a stack
        of points down the block path, where it raised a ValueError."""
        message = f"f_rows must be a bool, got {f_rows!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(registry_lookup("TRIDIA"), f_rows=f_rows)


class TestObjectiveValues:
    def test_arwhead_at_ones(self):
        """All-ones is the ARWHEAD standard start; f there is known in closed
        form: 99 groups each contribute (1+1-2)^... = 3."""
        prob = registry_lookup("ARWHEAD")
        assert prob.eval_f(np.ones(100)) == pytest.approx(297.0, abs=1e-12)

    def test_starting_values_are_finite(self):
        for name in ALL_NAMES:
            prob = registry_lookup(name)
            f0 = prob.eval_f(prob.x0)
            assert math.isfinite(f0)

    def test_phi_star_lower_bounds_sampled_values(self):
        rng = np.random.default_rng(3)
        for name in ALL_NAMES:
            prob = registry_lookup(name)
            assert prob.eval_f(prob.x0) >= prob.phi_star - 1e-9
            for _ in range(3):
                x = prob.x0 + 0.05 * rng.standard_normal(prob.dim)
                assert prob.eval_f(x) >= prob.phi_star - 1e-9

    def test_separable_quartic_minimum_values(self):
        """The problems with zero offset report phi_star = 0; GENROSE's chained
        form bottoms out at 1."""
        for name in ("ARWHEAD", "TRIDIA", "DQDRTIC", "WOODS", "NONDIA"):
            assert registry_lookup(name).phi_star == 0.0
        assert registry_lookup("GENROSE").phi_star == 1.0


class TestGradients:
    def test_arwhead_audit_at_fine_step(self):
        prob = registry_lookup("ARWHEAD")
        assert check_gradient(prob, prob.x0, h=1e-6) <= 1e-6

    def test_default_audit_at_start(self):
        for name in ALL_NAMES:
            prob = registry_lookup(name)
            err = check_gradient(prob, prob.x0)
            assert err <= 1e-6, f"{name}: {err:.3e}"

    def test_audit_near_start(self):
        for name in ALL_NAMES:
            prob = registry_lookup(name)
            for x in seeded_points(prob):
                err = check_gradient(prob, x)
                assert err <= 1e-6, f"{name}: {err:.3e}"

    def test_gradient_shape_and_dtype(self):
        for name in ALL_NAMES:
            prob = registry_lookup(name)
            g = prob.eval_g(prob.x0)
            assert g.shape == (prob.dim,)
            assert g.dtype == np.float64

    def test_constant_function_audit_is_zero(self):
        flat = Problem(
            name="FLAT",
            x0=np.zeros(3),
            eval_f=lambda x: 7.0,
            eval_g=lambda x: np.zeros(3),
            phi_star=7.0,
        )
        assert check_gradient(flat, np.array([0.3, -0.2, 1.0])) == 0.0


class TestRowKernels:
    """Problems with ``f_rows`` evaluate a stack of trial points in one call;
    the line search relies on each row's value having the bits of a lone
    evaluation."""

    def test_row_capable_problems(self):
        assert ROW_NAMES == ("ARWHEAD", "CRAGGLVY")
        assert not make_quadratic(4, 1.0, 2.0, seed=0).f_rows

    @pytest.mark.parametrize("name", ROW_NAMES)
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 40),
        smallest=st.integers(0, 30),
        scale=st.sampled_from([1e-3, 1.0, 1e3, 1e80, 1e160]),
    )
    def test_stack_equals_rows(self, name, seed, k, smallest, scale):
        """Trial points x + alpha p with steplengths from 1 down to
        10^-smallest (1e-30 at most); a large scale makes rows overflow."""
        prob = registry_lookup(name)
        rng = np.random.default_rng(seed)
        x = scale * rng.standard_normal(prob.dim)
        p = rng.standard_normal(prob.dim)
        alphas = np.logspace(0.0, -smallest, k)
        assert_rows_match(prob, x + alphas[:, None] * p)

    @pytest.mark.parametrize("name", ROW_NAMES)
    def test_pow_and_array_square_split(self, name):
        last = np.array([POW_SQUARE_SPLIT])
        assert POW_SQUARE_SPLIT**2 != np.square(last)[0]
        prob = registry_lookup(name)
        points = np.tile(prob.x0, (3, 1))
        points[:, -1] = [POW_SQUARE_SPLIT, 0.5, -POW_SQUARE_SPLIT]
        assert_rows_match(prob, points)
        assert_rows_match(prob, points[:1])

    @pytest.mark.parametrize("name", ROW_NAMES)
    def test_overflowing_rows(self, name):
        prob = registry_lookup(name)
        points = np.array([prob.x0 * 1e200, prob.x0, -prob.x0 * 1e155])
        assert_rows_match(prob, points)
        with np.errstate(over="ignore"):
            assert np.isinf(prob.eval_f(points)[0])


def reference_cragglvy_terms(x):
    m = (x.size - 2) // 2
    ia = 2 * np.arange(m)
    return ia, x[ia], x[ia + 1], x[ia + 2], x[ia + 3]


def reference_cragglvy_f(x):
    """CRAGGLVY's f as first written, with fancy-indexed interleaves; its
    powers are the kernel's product chains, written out."""
    _, a, b, c, e = reference_cragglvy_terms(x)
    d1 = np.exp(a) - b
    d2 = b - c
    u = np.tan(c - e)
    d1_2, d2_2, u_2, a_2 = d1 * d1, d2 * d2, u * u, a * a
    a_4 = a_2 * a_2
    return float(
        (
            d1_2 * d1_2
            + 100.0 * ((d2_2 * d2_2) * d2_2)
            + u_2 * u_2
            + a_4 * a_4
            + (e - 1.0) ** 2
        ).sum()
    )


def reference_cragglvy_g(x):
    """CRAGGLVY's gradient as first written: every term recomputed and
    scattered with ``np.add.at``, the powers as written-out chains."""
    ia, a, b, c, e = reference_cragglvy_terms(x)
    g = np.zeros_like(x)
    d1 = np.exp(a) - b
    d2 = b - c
    w = c - e
    u = np.tan(w)
    du = 1.0 / np.cos(w) ** 2
    a_2, d2_2 = a * a, d2 * d2
    d1_3 = (d1 * d1) * d1
    d2_5 = (d2_2 * d2_2) * d2
    u_3 = (u * u) * u
    a_7 = ((a_2 * a_2) * a_2) * a
    np.add.at(g, ia, 4.0 * d1_3 * np.exp(a) + 8.0 * a_7)
    np.add.at(g, ia + 1, -4.0 * d1_3 + 600.0 * d2_5)
    np.add.at(g, ia + 2, -600.0 * d2_5 + 4.0 * u_3 * du)
    np.add.at(g, ia + 3, -4.0 * u_3 * du + 2.0 * (e - 1.0))
    return g


def float_power_cragglvy(x):
    """CRAGGLVY's f, its gradient and, per coordinate, the sum of the
    gradient terms' absolute values, with numpy's power for every power."""
    n = 2 * ((x.size - 2) // 2)
    a, b, c, e = (x[j : n + j : 2] for j in range(4))
    power = np.float_power
    exp_a = np.exp(a)
    d1, d2, w = exp_a - b, b - c, c - e
    u, du = np.tan(w), 1.0 / np.cos(w) ** 2
    f = (
        power(d1, 4) + 100.0 * power(d2, 6) + power(u, 4) + power(a, 8) + (e - 1.0) ** 2
    ).sum()
    terms = (
        (4.0 * power(d1, 3) * exp_a, 8.0 * power(a, 7)),
        (-4.0 * power(d1, 3), 600.0 * power(d2, 5)),
        (-600.0 * power(d2, 5), 4.0 * power(u, 3) * du),
        (-4.0 * power(u, 3) * du, 2.0 * (e - 1.0)),
    )
    g, scale = np.zeros_like(x), np.zeros_like(x)
    for j, pair in enumerate(terms):
        for term in pair:
            g[j : n + j : 2] += term
            scale[j : n + j : 2] += np.abs(term)
    return float(f), g, scale


class TestCragglvyKernels:
    """The slice kernels give the bits of the fancy-index reference, NaN and
    infinities included, in even and odd dimensions."""

    @pytest.mark.parametrize("dim", [4, 5, 10, 100, 101])
    @settings(max_examples=210, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-3, 0.1, 1.0, 3.0, 10.0, 1e2, 1e3, 1e10, 1e160]),
        near_start=st.booleans(),
    )
    def test_matches_reference(self, dim, seed, scale, near_start):
        """Ten points a draw: scaled normals, or normals around the standard
        start; 1e3 and up make exp, the powers and tan overflow or go NaN."""
        prob = registry_lookup("CRAGGLVY")
        rng = np.random.default_rng(seed)
        start = np.full(dim, 2.0)
        start[0] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(10):
                x = scale * rng.standard_normal(dim)
                if near_start:
                    x += start
                f = np.array([prob.eval_f(x)])
                assert f.tobytes() == np.array([reference_cragglvy_f(x)]).tobytes()
                assert prob.eval_g(x).tobytes() == reference_cragglvy_g(x).tobytes()


class TestPowerChains:
    """CRAGGLVY's powers are fixed chains of IEEE products instead of
    numpy's power: a few ulp from the exact power, not 1 ulp."""

    @pytest.mark.parametrize("n", range(3, 9))
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(t=st.floats(2.0**-100, 2.0**100), negative=st.booleans())
    def test_chain_within_n_ulp_of_exact_power(self, n, t, negative):
        """A chain of k roundings has relative error below k u, u = 2^-53;
        that is under k ulp, and k <= n for every chain."""
        t = -t if negative else t
        chain = float(_power(np.array([t]), n)[0])
        exact = Fraction(t) ** n
        assert abs(Fraction(chain) - exact) <= n * Fraction(math.ulp(float(exact)))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([4, 5, 10, 100, 101]),
        scale=st.sampled_from([1e-3, 0.1, 1.0, 3.0]),
    )
    def test_close_to_numpy_power(self, seed, dim, scale):
        """f to relative 1e-14 (its terms are non-negative); each gradient
        coordinate to 1e-14 times the sum of its terms' absolute values."""
        prob = registry_lookup("CRAGGLVY")
        start = np.full(dim, 2.0)
        start[0] = 1.0
        x = start + scale * np.random.default_rng(seed).standard_normal(dim)
        f, g, g_scale = float_power_cragglvy(x)
        assert abs(prob.eval_f(x) - f) <= 1e-14 * f
        assert np.all(np.abs(prob.eval_g(x) - g) <= 1e-14 * g_scale)


class TestQuadratic:
    def test_scalar_case_is_half_square(self):
        """QUAD with d = 1, m = M = 1 is just x -> x^2 / 2."""
        prob = make_quadratic(1, 1.0, 1.0, seed=0)
        for v in (-2.0, 0.0, 0.5, 3.0):
            x = np.array([v])
            assert prob.eval_f(x) == pytest.approx(0.5 * v * v, rel=1e-15)
            assert prob.eval_g(x)[0] == pytest.approx(v, rel=1e-15)

    def test_inline_registry_spelling(self):
        prob = registry_lookup("QUAD(50,1,100,seed=7)")
        assert prob.dim == 50
        assert prob.name == "QUAD(50,1,100,7)"

    def test_eigenvalue_range_is_exact(self):
        """Reconstruct the Hessian column-by-column from the gradient and
        check its extreme eigenvalues hit m and M."""
        prob = make_quadratic(50, 1.0, 100.0, seed=7)
        a = np.column_stack([prob.eval_g(col) for col in np.eye(50)])
        values = np.linalg.eigvalsh(0.5 * (a + a.T))
        assert values[0] == pytest.approx(1.0, abs=1e-8)
        assert values[-1] == pytest.approx(100.0, abs=1e-8)

    def test_starting_point_norm(self):
        prob = make_quadratic(50, 1.0, 100.0, seed=7)
        assert abs(np.linalg.norm(prob.x0) - 10.0) <= 1e-10

    def test_minimum_at_origin(self):
        prob = make_quadratic(8, 0.5, 10.0, seed=3)
        assert prob.eval_f(np.zeros(8)) == 0.0
        np.testing.assert_array_equal(prob.eval_g(np.zeros(8)), np.zeros(8))
        assert prob.phi_star == 0.0

    def test_strong_convexity_envelope(self):
        """m ||x-z||^2 <= (g(x)-g(z)).(x-z) <= M ||x-z||^2 on random pairs."""
        m, big_m = 2.0, 30.0
        prob = make_quadratic(12, m, big_m, seed=11)
        rng = np.random.default_rng(4)
        for _ in range(40):
            x = rng.standard_normal(12)
            z = rng.standard_normal(12)
            dx = x - z
            inner = float((prob.eval_g(x) - prob.eval_g(z)) @ dx)
            nsq = float(dx @ dx)
            assert m * nsq - 1e-9 <= inner <= big_m * nsq + 1e-9

    def test_seed_determinism(self):
        a = make_quadratic(10, 1.0, 50.0, seed=21)
        b = make_quadratic(10, 1.0, 50.0, seed=21)
        x = np.linspace(-1, 1, 10)
        assert a.eval_f(x) == b.eval_f(x)
        np.testing.assert_array_equal(a.x0, b.x0)

    def test_audit_passes(self):
        prob = make_quadratic(2, 1.0, 1.0, seed=0)
        assert check_gradient(prob, np.array([1.0, 2.0]), h=1e-5) <= 1e-8

    def test_rejects_bad_spectrum(self):
        with pytest.raises(ValueError):
            make_quadratic(5, -1.0, 10.0, seed=0)
        with pytest.raises(ValueError):
            make_quadratic(5, 10.0, 1.0, seed=0)

    def test_malformed_inline_spec(self):
        with pytest.raises(UnknownProblemError):
            registry_lookup("QUAD(50)")

    @pytest.mark.parametrize(
        "spec", ["QUAD(x,1,10)", "QUAD(5,1,ten)", "QUAD(5,1,10,seven)", "QUAD(5,1,10,seed=)"]
    )
    def test_part_that_is_no_number(self, spec):
        with pytest.raises(UnknownProblemError, match=re.escape(f"unknown problem {spec!r}")):
            registry_lookup(spec)
