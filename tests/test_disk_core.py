"""Disk geometry, Blaschke evaluation, and the stable boundary path."""

import cmath
import math

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


def reference_boundary_values(B, theta, offset=None):
    """The per-factor boundary formula: each zero reduces its own angle
    beta = theta - arg(a) into [-pi, pi) and takes sin(beta/2) and sin(beta)."""
    theta = np.asarray(theta, dtype=float)
    out = np.ones(np.broadcast_shapes(theta.shape, np.shape(offset)), dtype=complex)
    for a in B.zeros:
        rho = abs(a)
        gamma = np.angle(a) if rho > 0 else 0.0
        d = 1.0 - rho
        beta = np.mod(theta - gamma + np.pi, 2 * np.pi) - np.pi
        if offset is not None:
            beta = beta + offset
        s = np.sin(0.5 * beta)
        s2 = 2.0 * s * s
        sb = np.sin(beta)
        out *= np.exp(1j * gamma) * ((d - s2) + 1j * sb) / ((d + rho * s2) - 1j * (rho * sb))
    return out


def previous_sweep(B, theta, offset=None):
    """The half-angle kernel as it was before the pair form, inline: with an
    offset it sweeps exactly the offsets given. The pair form must reproduce
    its values on [offset, -offset] bit for bit."""
    theta = np.asarray(theta, dtype=float)
    u, base = (theta, None) if offset is None else (np.asarray(offset, dtype=float), float(theta))
    cu, su = np.cos(0.5 * u).astype(complex), np.sin(0.5 * u).astype(complex)
    prod = np.ones(u.shape, dtype=complex)
    w, v = np.empty_like(prod), np.empty_like(prod)
    rot, floor = 1.0 + 0j, 1.0
    for a in B.zeros:
        rho = abs(a)
        gamma = float(np.angle(a)) if rho > 0 else 0.0
        half = 0.5 * (-gamma if base is None else math.remainder(base - gamma, 2 * math.pi))
        s0, c0 = math.sin(half), math.cos(half)
        d, e = 1.0 - rho, 1.0 + rho
        np.multiply(cu, complex(d * c0, e * s0), out=w)
        w += np.multiply(su, complex(-d * s0, e * c0), out=v)
        prod *= w
        floor *= d
        if floor < 1e-250:
            prod /= np.abs(prod)
            floor = 1.0
        rot *= cmath.exp(1j * gamma)
    prod /= np.abs(prod)
    prod *= prod
    prod *= rot
    return prod


def well_conditioned(zeros, angles, aligned=None):
    """Angles where no factor, except the aligned one, turns faster than 4
    times the angle: the phase speed of a factor is (1 - rho^2)/|1 - a e^{-i t}|^2.
    Elsewhere, within about sqrt(1 - rho) of a zero's angle, two formulas that
    round the angle differently cannot agree to a few ulps."""
    ok = np.ones(np.shape(angles), dtype=bool)
    for j, a in enumerate(zeros):
        if j != aligned:
            rho = abs(a)
            s = np.sin(0.5 * (angles - np.angle(a)))
            ok &= (1.0 - rho) * (1.0 + rho) <= 4.0 * ((1.0 - rho) ** 2 + 4.0 * rho * s * s)
    return ok


class TestCirclePoint:
    def test_normalizes_to_exact_modulus_one(self):
        p = CirclePoint((1.0 + 1e-8) * np.exp(0.7j))
        assert abs(p.value) == 1.0

    def test_rejects_interior_point(self):
        with pytest.raises(InvalidConfiguration):
            CirclePoint(0.9)


@pytest.mark.parametrize("kind", [CirclePoint, MoebiusFactor, lambda a: BlaschkeProduct(zeros=(0.5, a))])
@pytest.mark.parametrize("value", [complex("nan"), complex(0.5, float("nan")), complex("inf")])
def test_nan_and_inf_fail_the_disk_and_circle_checks(kind, value):
    with pytest.raises(InvalidConfiguration):
        kind(value)


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

    def test_matches_the_per_factor_formula(self):
        # degrees 1-20, one zero at 1 - 1e-12 and the rest log-uniform in
        # deficit; the pair form sits at that zero's angle, where both
        # formulas take beta = +-offset exactly, with offsets down to 1e-14
        rng = np.random.default_rng(71)
        checked = 0
        for n in range(1, 21):
            deficits = 10.0 ** rng.uniform(-12.0, 0.0, n)
            deficits[0] = 1e-12
            zeros = tuple((1.0 - deficits) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n)))
            B = BlaschkeProduct(zeros=zeros)
            tol = 2e-15 * max(1, n)
            theta = rng.uniform(-np.pi, np.pi, 512)
            ok = well_conditioned(zeros, theta)
            gap = np.abs(boundary_values(B, theta) - reference_boundary_values(B, theta))
            assert np.max(gap[ok], initial=0.0) <= tol
            checked += ok.sum()
            base = float(np.angle(zeros[0]))
            offset = rng.choice([-1.0, 1.0], 256) * 10.0 ** rng.uniform(-14.0, 0.0, 256)
            both = np.concatenate([offset, -offset])
            ok = well_conditioned(zeros, base + both, aligned=0)
            gap = np.abs(boundary_values(B, base, offset) - reference_boundary_values(B, base, both))
            assert np.max(gap[ok], initial=0.0) <= tol
            checked += ok.sum()
        assert checked >= 0.75 * 20 * (512 + 2 * 256)

    def test_pair_form_is_the_previous_sweep_bit_for_bit(self):
        # degrees 0-20, one zero at 1 - 1e-12 and the rest log-uniform in
        # deficit; rotations at that zero's angle and at random, offsets of
        # both signs from 1e-14 to pi. cos is even and sin odd bit for bit,
        # and (-su) C = -(su C) exactly, so nothing may move
        rng = np.random.default_rng(79)
        for n in range(21):
            deficits = 10.0 ** rng.uniform(-12.0, 0.0, n)
            deficits[:1] = 1e-12
            zeros = tuple((1.0 - deficits) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n)))
            B = BlaschkeProduct(zeros=zeros)
            offset = rng.choice([-1.0, 1.0], 300) * 10.0 ** rng.uniform(-14.0, math.log10(math.pi), 300)
            for base in (float(np.angle(zeros[0])) if n else 0.0, rng.uniform(-np.pi, np.pi)):
                both = boundary_values(B, base, offset)
                assert both.shape == (600,)
                assert np.array_equal(both, previous_sweep(B, base, np.concatenate([offset, -offset])))

    def test_periodic_without_reduction(self):
        # dyadic angles make theta + 2 pi k exact up to the rounding of 2 pi k
        # itself, which moves a factor with |a| <= 0.5 by at most 3 times that
        rng = np.random.default_rng(73)
        theta = np.arange(-201, 202) / 64.0
        for degree in (1, 3):
            B = BlaschkeProduct(zeros=moderate_zeros(rng, degree, rmax=0.5))
            grid = boundary_values(B, theta)
            split = boundary_values(B, 0.5, theta)
            for k in range(-3, 4):
                assert np.max(np.abs(boundary_values(B, theta + 2.0 * np.pi * k) - grid)) <= 1e-14
                assert np.max(np.abs(boundary_values(B, 0.5 + 2.0 * np.pi * k, theta) - split)) <= 1e-14

    def test_deep_zeros_do_not_underflow(self):
        # thirty factors of modulus 1e-15 at their common angle: the product of
        # the unnormalised half-angle terms would be 1e-450
        a = (1.0 - 1e-15) * np.exp(0.4j)
        B = BlaschkeProduct(zeros=(a,) * 30)
        offset = np.array([0.0, 1e-17, -1e-15, 1e-3])
        v = boundary_values(B, float(np.angle(a)), offset=offset)
        assert np.all(np.abs(np.abs(v) - 1.0) < 1e-14)
        assert abs(v[0] - np.exp(30j * np.angle(a))) < 1e-13
        assert np.array_equal(v, previous_sweep(B, float(np.angle(a)), np.concatenate([offset, -offset])))

    def test_degree_zero_is_one(self):
        B = BlaschkeProduct(zeros=())
        assert boundary_values(B, 0.3) == 1.0
        assert np.array_equal(boundary_values(B, np.linspace(-3.0, 3.0, 7)), np.ones(7))
        assert np.array_equal(boundary_values(B, 0.3, offset=np.array([0.0, 1e-9])), np.ones(4))

    def test_offset_needs_a_scalar_theta(self):
        B = BlaschkeProduct(zeros=(0.5,))
        with pytest.raises(InvalidConfiguration):
            boundary_values(B, np.array([0.1, 0.2]), offset=np.array([1e-9, -1e-9]))


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
