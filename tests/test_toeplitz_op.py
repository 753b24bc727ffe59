"""Operator application by residues and by contour, and the Schur chain's sampled sup-norm."""

import cmath

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from hypothesis import given, settings
from hypothesis import strategies as st

from toeplitz_bounds import (
    BlaschkeProduct,
    InvalidConfiguration,
    PointCollision,
    RationalFunction,
    RepeatedZero,
    apply_toeplitz_contour,
    apply_toeplitz_residue,
    eval_blaschke,
    lambda_functional,
    lemma1_upper_bound,
    toeplitz_op,
)


def random_zeros(rng, degree, rmax=0.8):
    r = rmax * rng.uniform(0.05, 1.0, degree)
    return tuple(r * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, degree)))


class TestResidueOracles:
    def test_constant_argument_single_zero(self):
        # 1/B(0) + 1/(B'(a) a) = -2 + (1 - a^2)/a at a = 1/2
        B = BlaschkeProduct(zeros=(0.5,))
        v = apply_toeplitz_residue(B, 1.0, 0.0)
        assert v == pytest.approx(-0.5, abs=1e-14)

    def test_quadratic_argument_single_zero(self):
        # h(0) = 0 kills the first term; a^2 (1 - a^2)/a at a = 1/2
        B = BlaschkeProduct(zeros=(0.5,))
        h = Polynomial([0.0, 0.0, 1.0])
        v = apply_toeplitz_residue(B, h, 0.0)
        assert v == pytest.approx(0.375, abs=1e-14)

    def test_constant_argument_symmetric_pair(self):
        # -4 + 15/8 + 15/8 for zeros at +-1/2
        B = BlaschkeProduct(zeros=(0.5, -0.5))
        v = apply_toeplitz_residue(B, 1.0, 0.0)
        assert v == pytest.approx(-0.25, abs=1e-14)

    def test_symbol_applied_to_itself_is_one(self):
        B = BlaschkeProduct(zeros=(0.5, -0.5, 0.3 + 0.4j))
        for z in (0.0, 0.3j, -0.2 + 0.1j):
            v = apply_toeplitz_residue(B, lambda w: eval_blaschke(B, w), z)
            assert v == pytest.approx(1.0, abs=1e-12)

    def test_degree_zero_symbol_acts_as_identity(self):
        B = BlaschkeProduct(zeros=())
        h = Polynomial([0.3, -0.2j, 1.0])
        for z in (0.0, 0.2 + 0.1j, -0.4j):
            assert apply_toeplitz_residue(B, h, z) == pytest.approx(complex(h(z)), abs=1e-14)

    @given(
        alpha=st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
        beta=st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_linearity_in_the_argument(self, alpha, beta):
        B = BlaschkeProduct(zeros=(0.5, -0.3j))
        h1 = Polynomial([1.0, 0.5j])
        h2 = Polynomial([0.0, 0.0, 1.0])
        z = 0.25 - 0.15j
        combo = alpha * h1 + beta * h2
        lhs = apply_toeplitz_residue(B, combo, z)
        rhs = alpha * apply_toeplitz_residue(B, h1, z) + beta * apply_toeplitz_residue(B, h2, z)
        assert lhs == pytest.approx(rhs, abs=1e-11 * (1.0 + abs(rhs)))


class TestRouteAgreement:
    def test_residue_matches_contour_on_random_instances(self):
        rng = np.random.default_rng(1234)
        for _ in range(20):
            B = BlaschkeProduct(zeros=random_zeros(rng, int(rng.integers(1, 4))))
            h = Polynomial(rng.standard_normal(4) + 1j * rng.standard_normal(4))
            z = 0.5 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            vr = apply_toeplitz_residue(B, h, z)
            vc, _ = apply_toeplitz_contour(B, h, z)
            assert abs(vr - vc) <= 1e-10

    @pytest.mark.parametrize("alpha", [0.0, 0.7])
    @pytest.mark.parametrize("d", [1e-4, 1e-6, 1e-9])
    def test_contour_resolves_a_zero_near_the_circle_in_few_points(self, monkeypatch, d, alpha):
        # one adaptive integral places its nodes at the zero's peak: a few
        # thousand boundary points, where uniform node doubling took 131,072
        # to 2,099,312 and still stopped 1.45e-9 off at d = 1e-9, alpha = 0.7
        points = []
        real = toeplitz_op.boundary_values

        def counted(B, theta, *args, **kwargs):
            points.append(np.size(theta))
            return real(B, theta, *args, **kwargs)

        monkeypatch.setattr(toeplitz_op, "boundary_values", counted)
        B = BlaschkeProduct(zeros=((1.0 - d) * cmath.exp(1j * alpha), 0.3j))
        h = Polynomial((1.0, 0.5, 0.2j))
        value, _ = apply_toeplitz_contour(B, h, 0.2)
        reference = apply_toeplitz_residue(B, h, 0.2)
        assert sum(points) <= 20_000
        assert abs(value - reference) <= 1e-9 * (1.0 + abs(reference))

    def test_contour_reports_its_quadrature_error(self):
        B = BlaschkeProduct(zeros=(0.5, -0.5))
        v, err = apply_toeplitz_contour(B, 1.0, 0.0)
        assert v == pytest.approx(-0.25, abs=1e-12)
        assert 0.0 <= err < 1e-10


class TestGuards:
    def test_point_at_zero_of_symbol_collides(self):
        B = BlaschkeProduct(zeros=(0.5,))
        with pytest.raises(PointCollision):
            apply_toeplitz_residue(B, 1.0, 0.5)

    def test_residue_route_requires_simple_zeros(self):
        B = BlaschkeProduct(zeros=(0.5, 0.5))
        with pytest.raises(RepeatedZero):
            apply_toeplitz_residue(B, 1.0, 0.0)

    def test_residue_point_must_be_inside_the_disk(self):
        B = BlaschkeProduct(zeros=(0.5,))
        with pytest.raises(InvalidConfiguration):
            apply_toeplitz_residue(B, 1.0, 1.0)

    def test_nan_point_is_rejected_by_both_routes(self):
        B = BlaschkeProduct(zeros=(0.5,))
        for apply in (apply_toeplitz_residue, apply_toeplitz_contour):
            with pytest.raises(InvalidConfiguration):
                apply(B, 1.0, complex("nan"))

    @pytest.mark.parametrize("h", [float("nan"), complex(1.0, float("inf")), float("-inf")])
    def test_non_finite_constant_is_rejected_by_both_routes(self, h):
        B = BlaschkeProduct(zeros=(0.5,))
        for apply in (apply_toeplitz_residue, apply_toeplitz_contour):
            with pytest.raises(InvalidConfiguration):
                apply(B, h, 0.0)

    def test_contour_point_must_stay_off_the_boundary(self):
        B = BlaschkeProduct(zeros=(0.5,))
        with pytest.raises(InvalidConfiguration):
            apply_toeplitz_contour(B, 1.0, 0.9995)


# Two-level Schur chains with the first node delta from the circle. Their
# exact supremum is MU (|g0| + |g1|) / (1 + |g0| |g1|), since g1 b_0 sweeps
# the circle of radius |g1|; the peak narrows with delta.
CHAIN_DELTAS = (1e-2, 3e-3)
CHAIN_ALPHAS = (0.1234567, -2.0005, 3.1)
CHAIN_GAMMAS = ((0.6, 0.7), (0.3 + 0.5j, -0.8j), (0.95, 0.9))
MU = 1.7


def two_level_chain(delta, alpha, gammas):
    g0, g1 = gammas
    h = RationalFunction([(1.0 - delta) * cmath.exp(1j * alpha), 0.0], gammas, MU)
    return h, MU * (abs(g0) + abs(g1)) / (1.0 + abs(g0) * abs(g1))


class TestSupNormReach:
    @pytest.mark.parametrize("gammas", CHAIN_GAMMAS)
    @pytest.mark.parametrize("alpha", CHAIN_ALPHAS)
    @pytest.mark.parametrize("delta", CHAIN_DELTAS)
    def test_refinement_reaches_the_exact_supremum(self, delta, alpha, gammas):
        h, exact = two_level_chain(delta, alpha, gammas)
        assert abs(h.sup_norm() - exact) <= 2e-15 * exact

    def test_the_sweep_alone_falls_short(self):
        # what the refinement buys: the 4,096-angle sweep by itself reads up
        # to 2.6e-3 low on these chains
        shortfall = []
        for delta in CHAIN_DELTAS:
            for alpha in CHAIN_ALPHAS:
                for gammas in CHAIN_GAMMAS:
                    h, exact = two_level_chain(delta, alpha, gammas)
                    sweep = np.abs(h._on_circle(toeplitz_op._SUP_THETA, toeplitz_op._SUP_HALF))
                    shortfall.append((exact - float(np.max(sweep))) / exact)
        assert max(shortfall) > 1e-3


class TestUpperBound:
    def test_bound_is_one_plus_the_functional(self):
        B = BlaschkeProduct(zeros=(0.5, -0.5))
        r = lambda_functional(B)
        assert lemma1_upper_bound(B) == pytest.approx(1.0 + r.value + r.error_estimate, abs=1e-12)

    def test_bound_respects_the_degree_cap(self):
        rng = np.random.default_rng(99)
        for _ in range(5):
            deg = int(rng.integers(1, 4))
            B = BlaschkeProduct(zeros=random_zeros(rng, deg))
            assert lemma1_upper_bound(B) <= 1.0 + 2.0 * deg + 1e-6
