"""Operator application by residues and by contour, and the rational helpers."""

import cmath

import numpy as np
import pytest
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
        h = RationalFunction([0.0, 0.0, 1.0])
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
        h = RationalFunction([0.3, -0.2j, 1.0])
        for z in (0.0, 0.2 + 0.1j, -0.4j):
            assert apply_toeplitz_residue(B, h, z) == pytest.approx(complex(h(z)), abs=1e-14)

    @given(
        alpha=st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
        beta=st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_linearity_in_the_argument(self, alpha, beta):
        B = BlaschkeProduct(zeros=(0.5, -0.3j))
        h1 = RationalFunction([1.0, 0.5j])
        h2 = RationalFunction([0.0, 0.0, 1.0])
        z = 0.25 - 0.15j
        combo = RationalFunction(alpha * np.pad(h1.numerator, (0, 1)) + beta * h2.numerator)
        lhs = apply_toeplitz_residue(B, combo, z)
        rhs = alpha * apply_toeplitz_residue(B, h1, z) + beta * apply_toeplitz_residue(B, h2, z)
        assert lhs == pytest.approx(rhs, abs=1e-11 * (1.0 + abs(rhs)))


class TestRouteAgreement:
    def test_residue_matches_contour_on_random_instances(self):
        rng = np.random.default_rng(1234)
        for _ in range(20):
            B = BlaschkeProduct(zeros=random_zeros(rng, int(rng.integers(1, 4))))
            h = RationalFunction(rng.standard_normal(4) + 1j * rng.standard_normal(4))
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
        h = RationalFunction((1.0, 0.5, 0.2j))
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


class TestRationalFunction:
    def test_rejects_pole_inside_the_disk(self):
        with pytest.raises(InvalidConfiguration):
            RationalFunction([1.0], [1.0, -2.0])

    @pytest.mark.parametrize(
        "num, den",
        [([1.0, float("nan")], [1.0]), ([float("inf")], [1.0]), ([1.0], [1.0, complex(0.0, float("nan"))])],
    )
    def test_rejects_non_finite_coefficients(self, num, den):
        with pytest.raises(InvalidConfiguration):
            RationalFunction(num, den)

    def test_rejects_zero_denominator(self):
        with pytest.raises(InvalidConfiguration):
            RationalFunction([1.0], [0.0])

    def test_evaluator_closure_takes_precedence(self):
        f = RationalFunction([0.0], evaluator=lambda z: np.asarray(z) * 0 + 7.0)
        assert complex(f(0.3j)) == pytest.approx(7.0)

    def test_sup_norm_of_the_coordinate_is_one(self):
        f = RationalFunction([0.0, 1.0])
        assert f.sup_norm() == pytest.approx(1.0, abs=1e-12)

    def test_sup_norm_of_a_disk_automorphism_is_one(self):
        a = 0.4 - 0.3j
        f = RationalFunction([-a, 1.0], [1.0, -np.conj(a)])
        assert f.sup_norm() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("delta", [1e-3, 1e-5, 1e-7])
    def test_sup_norm_refines_a_pole_next_to_the_circle(self, delta):
        # h(z) = 1 / (1 - z e^{-i alpha} / r), r = 1 + delta, peaks at
        # theta = alpha with |h| = r / delta; below delta = 1e-4 the peak is
        # narrower than the grid step, so only the refinement reaches it.
        # Evaluating 1 - z e^{-i alpha} / r loses about 1e-16 / delta
        r = 1.0 + delta
        exact = r / (r - 1.0)
        for alpha in (0.1234567, -2.0005, 3.1):
            h = RationalFunction([1.0], [1.0, -cmath.exp(-1j * alpha) / r])
            assert abs(h.sup_norm() - exact) <= 1e-14 / delta * exact

    def test_trailing_zero_coefficients_are_trimmed(self):
        f = RationalFunction([1.0, 2.0, 0.0, 0.0])
        assert f.numerator.size == 2


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
