"""Adaptive circle quadrature and the oscillation functional."""

import math

import numpy as np
import pytest

from toeplitz_bounds import (
    BlaschkeProduct,
    CirclePoint,
    InvalidConfiguration,
    QuadratureSpec,
    ToleranceNotMet,
    integrate_circle,
    lambda_at_rotation,
    lambda_functional,
)
from toeplitz_bounds import circle_quad
from toeplitz_bounds.disk_core import boundary_values


def aligned_single_zero_integral(a: float) -> float:
    """Closed form of the oscillation integral for one real zero a in (0, 1)
    at the aligned rotation, from splitting the integrand at the phase flip."""
    return (2.0 * (1.0 + a) / (math.pi * math.sqrt(a))) * math.atan(
        2.0 * math.sqrt(a) / (1.0 - a)
    )


def random_zeros(rng, degree, rmax=0.9):
    r = rmax * rng.uniform(0.05, 1.0, degree)
    return tuple(r * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, degree)))


class TestQuadratureSpec:
    def test_rejects_bad_panel_counts(self):
        with pytest.raises(InvalidConfiguration):
            QuadratureSpec(base_panels=48)
        with pytest.raises(InvalidConfiguration):
            QuadratureSpec(base_panels=32)

    def test_rejects_unreachable_tolerance(self):
        with pytest.raises(InvalidConfiguration):
            QuadratureSpec(tolerance=1e-15)


class TestIntegrateCircle:
    def test_constant(self):
        v, err = integrate_circle(lambda w: np.ones_like(w))
        assert v == pytest.approx(1.0, abs=1e-12)
        assert err < 1e-9

    def test_monomials_average_to_zero(self):
        for k in (1, 2, 5):
            v, _ = integrate_circle(lambda w, k=k: w**k)
            assert abs(v) < 1e-12

    def test_analytic_function_averages_to_center_value(self):
        v, _ = integrate_circle(lambda w: 1.0 / (1.0 - 0.5 * w))
        assert v == pytest.approx(1.0, abs=1e-11)

    def test_scalar_callable_is_wrapped(self):
        v, _ = integrate_circle(lambda w: complex(w) ** 2 + 3.0)
        assert v == pytest.approx(3.0, abs=1e-11)

    def test_tolerance_not_met_carries_best_value(self):
        spec = QuadratureSpec(max_depth=1, tolerance=1e-12)
        sharp = lambda w: 1.0 / np.abs(w - (1.0 + 1e-6))
        with pytest.raises(ToleranceNotMet) as exc:
            integrate_circle(sharp, spec)
        assert exc.value.value is not None
        assert exc.value.error_estimate > 0
        assert exc.value.evaluations > 0


class TestLambdaOracles:
    def test_identity_symbol_is_four_over_pi(self):
        r = lambda_functional(BlaschkeProduct(zeros=(0.0,)))
        assert r.value == pytest.approx(4.0 / math.pi, abs=1e-11)

    def test_aligned_rotation_matches_closed_form(self):
        for a in (0.3, 0.6, 0.9, 0.95, 0.99):
            v = lambda_at_rotation(BlaschkeProduct(zeros=(a,)), 1.0)
            assert v == pytest.approx(aligned_single_zero_integral(a), abs=1e-10)

    def test_single_zero_supremum_is_attained_aligned(self):
        # for one real zero the best rotation is the aligned one
        a = 0.95
        r = lambda_functional(BlaschkeProduct(zeros=(a,)))
        assert r.value == pytest.approx(aligned_single_zero_integral(a), abs=1e-8)
        assert r.value <= 2.0 + 1e-8

    def test_degree_two_exceeds_the_single_zero_cap(self):
        # a confluent pair already pushes the functional past 2
        r = lambda_functional(BlaschkeProduct(zeros=(0.95, 0.95)))
        assert r.value > 2.4
        assert r.value < 2.55
        assert r.value <= 4.0 + 1e-6

    def test_result_record_fields(self):
        r = lambda_functional(BlaschkeProduct(zeros=(0.5,)))
        assert isinstance(r.eta, CirclePoint)
        assert r.evaluations > 0
        assert r.error_estimate >= 0.0


class TestLambdaProperties:
    def test_rotation_of_zeros_leaves_value_invariant(self):
        rng = np.random.default_rng(23)
        zeros = random_zeros(rng, 3)
        base = lambda_functional(BlaschkeProduct(zeros=zeros)).value
        for alpha in (0.3, 2.1):
            rot = tuple(np.exp(1j * alpha) * np.asarray(zeros))
            v = lambda_functional(BlaschkeProduct(zeros=rot)).value
            assert v == pytest.approx(base, abs=2e-7)

    def test_pointwise_subadditive_at_shared_rotation(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            z1 = random_zeros(rng, int(rng.integers(1, 4)))
            z2 = random_zeros(rng, int(rng.integers(1, 4)))
            eta = np.exp(2j * np.pi * rng.uniform())
            whole = lambda_at_rotation(BlaschkeProduct(zeros=z1 + z2), eta)
            parts = lambda_at_rotation(BlaschkeProduct(zeros=z1), eta) + lambda_at_rotation(
                BlaschkeProduct(zeros=z2), eta
            )
            assert whole <= parts + 1e-6

    def test_capped_by_twice_the_degree(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            deg = int(rng.integers(1, 5))
            r = lambda_functional(BlaschkeProduct(zeros=random_zeros(rng, deg, rmax=0.97)))
            assert r.value <= 2.0 * deg + 1e-6

    def test_finer_rotation_grid_does_not_lose_value(self):
        rng = np.random.default_rng(41)
        wins = 0
        trials = 10
        for _ in range(trials):
            B = BlaschkeProduct(zeros=random_zeros(rng, 2, rmax=0.95))
            coarse = lambda_functional(B, rotation_grid=64).value
            fine = lambda_functional(B, rotation_grid=256).value
            if fine >= coarse - 1e-7:
                wins += 1
        assert wins >= int(0.95 * trials)

    def test_small_grid_rejected(self):
        with pytest.raises(InvalidConfiguration):
            lambda_functional(BlaschkeProduct(zeros=(0.5,)), rotation_grid=32)

    def test_near_boundary_zero_found_by_aligned_candidates(self):
        # deficit far below grid resolution: the uniform scan alone cannot
        # see the peak, the zero-aligned candidate family must recover it
        d = 1e-9
        a = (1.0 - d) * np.exp(1.234j)
        r = lambda_functional(BlaschkeProduct(zeros=(a,)))
        assert r.value > 2.0 - 1e-5
        assert r.value <= 2.0 + 1e-8


def modulo_index_scan(f, R, M):
    """Full-length rotation grid scan: every term of the rotation sum, gathered
    through explicit index matrices taken modulo M."""
    s = M // R
    theta = -math.pi + (np.arange(M) + 0.5) * (2.0 * math.pi / M)
    if isinstance(f, BlaschkeProduct):
        F = boundary_values(f, theta)
    else:
        F = np.asarray(f(np.exp(1j * theta)))
    kern = 1.0 / (2.0 * np.abs(np.sin(0.5 * theta)))
    j = np.arange(M)
    shifts = (np.arange(R) * s)[:, None]
    plus = (j[None, :] + shifts) % M
    minus = ((M - 1 - j)[None, :] + shifts) % M
    return np.abs(F[plus] - F[minus]) @ kern / M


class TestGridScan:
    @pytest.mark.parametrize("R", [64, 100, 256])
    def test_matches_the_full_length_modulo_formula(self, R):
        rng = np.random.default_rng(53)
        for f in (BlaschkeProduct(zeros=random_zeros(rng, 4)), lambda z: z**2):
            phis, vals, M = circle_quad._grid_scan(f, R)
            assert phis.shape == vals.shape == (R,)
            ref = modulo_index_scan(f, R, M)
            np.testing.assert_allclose(vals, ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("R", [64, 99, 201, 256])
    def test_grid_is_finite_for_any_grid_size(self, R):
        _, vals, M = circle_quad._grid_scan(BlaschkeProduct(zeros=(0.5, 0.3j)), R)
        assert M % 2 == 0
        assert np.all(np.isfinite(vals))

    def test_odd_sized_grid_finds_the_same_supremum(self):
        B = BlaschkeProduct(zeros=(0.5, 0.3j))
        coarse = lambda_functional(B, rotation_grid=201).value
        fine = lambda_functional(B, rotation_grid=256).value
        assert coarse == pytest.approx(fine, abs=1e-7)


class TestPairEvaluator:
    def test_one_sweep_matches_two_separate_sweeps(self):
        rng = np.random.default_rng(59)
        B = BlaschkeProduct(zeros=random_zeros(rng, 4, rmax=0.999))
        theta = np.sort(rng.uniform(1e-12, math.pi, 257))
        phi = 2.0 * math.pi * rng.uniform()
        fp, fm = circle_quad._pair_evaluator(B)(phi, theta)
        assert np.array_equal(fp, boundary_values(B, phi, offset=theta))
        assert np.array_equal(fm, boundary_values(B, phi, offset=-theta))


class TestSwallowedToleranceFailures:
    def test_evaluations_of_a_swallowed_failure_are_counted(self, monkeypatch):
        B = BlaschkeProduct(zeros=(0.5, 0.3j))
        expected = lambda_functional(B).evaluations
        real = circle_quad._adaptive_theta
        raised = []

        def fail_once(*args, **kwargs):
            val, err, evals = real(*args, **kwargs)
            if not raised:
                raised.append(evals)
                raise ToleranceNotMet("forced", value=val, error_estimate=err, evaluations=evals)
            return val, err, evals

        monkeypatch.setattr(circle_quad, "_adaptive_theta", fail_once)
        r = lambda_functional(B)
        assert raised and raised[0] > 0
        assert r.evaluations == expected
