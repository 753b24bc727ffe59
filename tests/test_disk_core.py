"""Disk geometry, Blaschke evaluation, and the stable boundary path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toeplitz_bounds import (
    BlaschkeProduct,
    CirclePoint,
    InvalidConfiguration,
    MoebiusFactor,
    RepeatedZero,
    boundary_values,
    eval_blaschke,
    eval_blaschke_derivative,
    eval_moebius,
    pseudohyperbolic_distance,
)

disk_points = st.complex_numbers(max_magnitude=0.93, allow_nan=False, allow_infinity=False)


def moderate_zeros(rng, degree, rmax=0.9):
    r = rmax * rng.uniform(0.05, 1.0, degree)
    return tuple(r * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, degree)))


class TestCirclePoint:
    def test_normalizes_to_exact_modulus_one(self):
        p = CirclePoint((1.0 + 1e-8) * np.exp(0.7j))
        assert abs(p.value) == 1.0

    def test_rejects_interior_point(self):
        with pytest.raises(InvalidConfiguration):
            CirclePoint(0.9)


class TestMoebius:
    def test_vanishes_at_own_zero(self):
        assert eval_moebius(MoebiusFactor(0.3 + 0.4j), 0.3 + 0.4j) == 0

    def test_zero_at_origin_is_identity(self):
        z = 0.25 - 0.11j
        assert eval_moebius(MoebiusFactor(0.0), z) == z

    @given(a=disk_points, theta=st.floats(-np.pi, np.pi))
    @settings(max_examples=50, deadline=None)
    def test_unimodular_on_circle(self, a, theta):
        v = eval_moebius(MoebiusFactor(a), np.exp(1j * theta))
        assert abs(abs(v) - 1.0) < 1e-12


class TestBlaschkeProduct:
    def test_degree_counts_zeros(self):
        assert BlaschkeProduct(zeros=(0.1, 0.2j)).degree == 2
        assert BlaschkeProduct(zeros=()).degree == 0

    def test_degree_zero_is_constant_one(self):
        assert eval_blaschke(BlaschkeProduct(zeros=()), 0.37 + 0.2j) == 1.0 + 0j

    def test_value_at_origin_is_product_of_negated_zeros(self):
        zeros = (0.5, -0.25 + 0.1j, 0.3j)
        B = BlaschkeProduct(zeros=zeros)
        assert eval_blaschke(B, 0.0) == pytest.approx(np.prod([-a for a in zeros]), abs=1e-15)

    def test_vanishes_at_each_zero(self):
        zeros = (0.5, -0.25 + 0.1j)
        B = BlaschkeProduct(zeros=zeros)
        for a in zeros:
            assert abs(eval_blaschke(B, a)) < 1e-15

    def test_matches_product_of_factors(self):
        rng = np.random.default_rng(3)
        zeros = moderate_zeros(rng, 4)
        B = BlaschkeProduct(zeros=zeros)
        z = 0.3 - 0.55j
        direct = np.prod([eval_moebius(MoebiusFactor(a), z) for a in zeros])
        assert eval_blaschke(B, z) == pytest.approx(direct, abs=1e-14)

    def test_repeated_zeros_are_allowed_in_the_product(self):
        B = BlaschkeProduct(zeros=(0.5, 0.5))
        v = eval_blaschke(B, 0.2)
        single = eval_moebius(MoebiusFactor(0.5), 0.2)
        assert v == pytest.approx(single**2, abs=1e-15)


class TestDerivative:
    def test_single_factor_at_own_zero(self):
        # b_a'(a) = 1 / (1 - |a|^2)
        B = BlaschkeProduct(zeros=(0.5,))
        assert eval_blaschke_derivative(B, 0.5) == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(11)
        zeros = moderate_zeros(rng, 3)
        B = BlaschkeProduct(zeros=zeros)
        z = 0.21 + 0.33j
        h = 1e-6
        fd = (eval_blaschke(B, z + h) - eval_blaschke(B, z - h)) / (2 * h)
        assert eval_blaschke_derivative(B, z) == pytest.approx(fd, rel=1e-8)

    def test_derivative_at_confluent_pair_raises(self):
        B = BlaschkeProduct(zeros=(0.5, 0.5))
        with pytest.raises(RepeatedZero):
            eval_blaschke_derivative(B, 0.5)
        # away from the collision the derivative is still well defined
        eval_blaschke_derivative(B, 0.1)

    @given(
        z=st.complex_numbers(max_magnitude=0.85, allow_nan=False, allow_infinity=False),
        a=disk_points,
        b=disk_points,
    )
    @settings(max_examples=50, deadline=None)
    def test_invariant_derivative_bound(self, z, a, b):
        # |B'(z)| (1 - |z|^2) <= degree for any Blaschke product
        if abs(a - b) < 1e-6:
            return
        B = BlaschkeProduct(zeros=(a, b))
        v = abs(eval_blaschke_derivative(B, z)) * (1.0 - abs(z) ** 2)
        assert v <= 2.0 + 1e-9


class TestBoundaryValues:
    def test_matches_direct_evaluation_for_moderate_zeros(self):
        rng = np.random.default_rng(5)
        zeros = moderate_zeros(rng, 4)
        B = BlaschkeProduct(zeros=zeros)
        theta = np.linspace(-3.0, 3.0, 41)
        direct = eval_blaschke(B, np.exp(1j * theta))
        stable = boundary_values(B, theta)
        assert np.max(np.abs(direct - stable)) < 1e-12

    def test_unimodular_even_at_tiny_deficit(self):
        B = BlaschkeProduct(zeros=(1.0 - 1e-12, (1.0 - 1e-10) * np.exp(0.4j)))
        theta = np.concatenate(
            [np.linspace(-np.pi, np.pi, 101), 1e-11 * np.linspace(-5, 5, 11)]
        )
        v = boundary_values(B, theta)
        assert np.max(np.abs(np.abs(v) - 1.0)) < 1e-14

    def test_continuity_across_the_zero_angle(self):
        # full relative accuracy where direct evaluation would cancel
        d = 1e-12
        B = BlaschkeProduct(zeros=(1.0 - d,))
        t = d * np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
        v = boundary_values(B, t)
        # phase must sweep monotonically through the window
        ang = np.unwrap(np.angle(v))
        assert np.all(np.diff(ang) > 0)

    def test_scalar_theta_gives_scalar(self):
        B = BlaschkeProduct(zeros=(0.5,))
        v = boundary_values(B, 0.3)
        assert np.isscalar(v) or np.asarray(v).shape == ()


class TestPseudohyperbolicDistance:
    def test_at_origin_is_modulus(self):
        assert pseudohyperbolic_distance(0.0, 0.3 + 0.4j) == pytest.approx(0.5, rel=1e-15)

    @given(z=disk_points, w=disk_points)
    @settings(max_examples=50, deadline=None)
    def test_symmetric_and_bounded(self, z, w):
        d = pseudohyperbolic_distance(z, w)
        assert d == pytest.approx(pseudohyperbolic_distance(w, z), abs=1e-14)
        assert 0.0 <= d < 1.0

    @given(z=disk_points, w=disk_points, a=disk_points)
    @settings(max_examples=50, deadline=None)
    def test_moebius_invariance(self, z, w, a):
        f = MoebiusFactor(a)
        d0 = pseudohyperbolic_distance(z, w)
        d1 = pseudohyperbolic_distance(eval_moebius(f, z), eval_moebius(f, w))
        assert d1 == pytest.approx(d0, abs=1e-11)
