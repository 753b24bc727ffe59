"""Adaptive circle quadrature and the oscillation functional."""

import cmath
import importlib.util
import math
import pathlib
import subprocess
import sys
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

from toeplitz_bounds import (
    BlaschkeProduct,
    CirclePoint,
    InvalidConfiguration,
    NumericalBreakdown,
    QuadratureSpec,
    ToleranceNotMet,
    integrate_circle,
    lambda_functional,
)
from toeplitz_bounds import circle_quad, disk_core
from toeplitz_bounds.disk_core import _half_angle_pair, boundary_values
from toeplitz_bounds.omega_bounds import _ray_zeros

from test_disk_core import previous_sweep
from test_scripts import acceptance_plans


def aligned_single_zero_integral(a: float) -> float:
    """Closed form of the oscillation integral for one real zero a in (0, 1)
    at the aligned rotation, from splitting the integrand at the phase flip."""
    return (2.0 * (1.0 + a) / (math.pi * math.sqrt(a))) * math.atan(
        2.0 * math.sqrt(a) / (1.0 - a)
    )


def lambda_at_rotation(f, eta):
    """The Lambda search's inner integral at one fixed rotation eta, at the
    default Lambda tolerance."""
    phi = cmath.phase(eta)
    ladders = circle_quad._seed_ladders(f)
    tol = circle_quad.DEFAULT_LAMBDA_SPEC.tolerance
    (first,), _ = circle_quad._first_sweeps(f, [phi], ladders, circle_quad._kink_solver(f))
    return circle_quad._lambda_integral(f, phi, tol, first)[0]


def random_zeros(rng, degree, rmax=0.9):
    r = rmax * rng.uniform(0.05, 1.0, degree)
    return tuple(r * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, degree)))


class TestQuadratureSpec:
    def test_rejects_unreachable_tolerance(self):
        with pytest.raises(InvalidConfiguration):
            QuadratureSpec(tolerance=1e-15)


class TestIntegrateCircle:
    def test_constant(self):
        v, err = integrate_circle(lambda theta: np.ones_like(theta))
        assert v == pytest.approx(1.0, abs=1e-12)
        assert err < 1e-9

    def test_monomials_average_to_zero(self):
        for k in (1, 2, 5):
            v, _ = integrate_circle(lambda theta, k=k: np.exp(1j * k * theta))
            assert abs(v) < 1e-12

    def test_analytic_function_averages_to_center_value(self):
        v, _ = integrate_circle(lambda theta: 1.0 / (1.0 - 0.5 * np.exp(1j * theta)))
        assert v == pytest.approx(1.0, abs=1e-11)

    def test_tolerance_not_met_carries_best_value(self, monkeypatch):
        monkeypatch.setattr(circle_quad, "MAX_DEPTH", 1)
        spec = QuadratureSpec(tolerance=1e-12)
        sharp = lambda theta: 1.0 / np.abs(np.exp(1j * theta) - (1.0 + 1e-6))
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

    def test_identity_symbol_is_within_its_error_estimate(self):
        r = lambda_functional(BlaschkeProduct(zeros=(0.0,)), QuadratureSpec(tolerance=1e-12))
        assert abs(r.value - 4.0 / math.pi) <= r.error_estimate + 1e-15

    @pytest.mark.parametrize("a", [0.3, 0.6, 0.9, 0.95, 0.99, 1.0 - 1e-6, 1.0 - 1e-9])
    def test_single_zero_supremum_is_within_its_error_estimate(self, a):
        # the estimate carries the panel errors and the search disagreement;
        # it must cover the distance to the closed form, needle included
        r = lambda_functional(BlaschkeProduct(zeros=(a,)))
        assert abs(r.value - aligned_single_zero_integral(a)) <= r.error_estimate + 1e-15

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

    def test_non_blaschke_symbol_is_rejected_at_entry(self):
        for call in (lambda f: lambda_functional(f), lambda f: lambda_at_rotation(f, 1.0)):
            with pytest.raises(InvalidConfiguration):
                call(lambda z: z**2)

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
    F = boundary_values(f, theta)
    kern = 1.0 / (2.0 * np.abs(np.sin(0.5 * theta)))
    j = np.arange(M)
    shifts = (np.arange(R) * s)[:, None]
    plus = (j[None, :] + shifts) % M
    minus = ((M - 1 - j)[None, :] + shifts) % M
    return np.abs(F[plus] - F[minus]) @ kern / M


def all_rows_scan(f, R, nodes=1024):
    """The grid scan before its half-turn sharing, inline: the moduli of every
    row computed, in row blocks of 1 MB at 24 bytes a term. Returns what
    _grid_scan returns; its grid has `nodes` nodes at R = 256, as
    _grid_scan's, and at least two a rotation."""
    s = max(2, -(-nodes // R))
    s += s % 2
    M = R * s
    half = M // 2
    theta = -math.pi + (np.arange(M) + 0.5) * (2.0 * math.pi / M)
    F = boundary_values(f, theta)
    kern = 1.0 / (2.0 * np.abs(np.sin(0.5 * theta[:half])))
    plus = np.lib.stride_tricks.sliding_window_view(np.concatenate([F, F]), half)[0:M:s]
    minus = np.lib.stride_tricks.sliding_window_view(np.concatenate([F[::-1], F[::-1]]), half)[M:0:-s]
    rows = max(1, (1 << 20) // (24 * half))
    blocks = (np.abs(plus[i : i + rows] - minus[i : i + rows]) for i in range(0, R, rows))
    vals = np.concatenate([np.einsum("ij,j->i", blk, kern) for blk in blocks])
    vals *= 2.0 / M
    return np.arange(R) * (2.0 * math.pi / R), vals, M


# B(z) = z and the double zero at 0 tie on every rotation; a zero 1e-12 from
# the circle and a degree-6 product do not
GRID_PRODUCTS = {
    "identity": (0.0,),
    "double-zero-at-0": (0.0, 0.0),
    "zero-1e-12-from-circle": ((1.0 - 1e-12) * cmath.exp(2.0j),),
    "degree-6": random_zeros(np.random.default_rng(71), 6, rmax=0.95),
}


class TestGridScan:
    @pytest.mark.parametrize("name", sorted(GRID_PRODUCTS))
    def test_half_turn_rows_are_the_all_rows_scan_bit_for_bit(self, name):
        B = BlaschkeProduct(zeros=GRID_PRODUCTS[name])
        _, vals, M = circle_quad._grid_scan(B)
        _, ref, M_ref = all_rows_scan(B, 256)
        assert M == M_ref and np.array_equal(vals, ref)

    @pytest.mark.parametrize(
        "zeros", [random_zeros(np.random.default_rng(53), 4), (0, 0)], ids=["degree-4", "double-zero-at-0"]
    )
    def test_matches_the_full_length_modulo_formula(self, zeros):
        f = BlaschkeProduct(zeros=zeros)
        phis, vals, M = circle_quad._grid_scan(f)
        assert phis.shape == vals.shape == (256,)
        ref = modulo_index_scan(f, 256, M)
        np.testing.assert_allclose(vals, ref, rtol=1e-12, atol=0.0)

    def test_grid_angles_are_one_rotation_step_apart(self):
        phis, _, M = circle_quad._grid_scan(BlaschkeProduct(zeros=(0.5, 0.3j)))
        assert circle_quad.ROTATIONS == 256 and M == 4 * circle_quad.ROTATIONS == 1024
        np.testing.assert_array_equal(phis, np.arange(256) * (2.0 * math.pi / 256))

    def test_theta_grid_is_symmetric_and_misses_the_kernel_pole(self):
        # reflection is an index reversal, to rounding, and no node sits on
        # theta = 0
        theta = circle_quad._GRID_THETA
        assert theta.shape == (1024,)
        np.testing.assert_allclose(theta[::-1], -theta, rtol=0.0, atol=4.0 * np.finfo(float).eps)
        assert np.min(np.abs(theta)) == pytest.approx(math.pi / 1024, rel=1e-12)
        kernel = circle_quad._GRID_KERNEL
        assert kernel.shape == (512,) and np.all(np.isfinite(kernel)) and np.all(kernel > 0)
        np.testing.assert_array_equal(kernel, 1.0 / (2.0 * np.abs(np.sin(0.5 * theta[:512]))))

    def test_default_grid_scan_stays_cache_sized(self):
        B = BlaschkeProduct(zeros=(0.5, 0.3j, -0.7))
        tracemalloc.start()
        try:
            circle_quad._grid_scan(B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


class TestCandidateRotations:
    def test_the_two_grid_winners_are_the_grid_candidates(self):
        # no zero is within four grid steps of the circle, so the candidates
        # are the grid's two leaders alone: neither its third nor the fixed
        # rotation 0, which the 13-point screen added
        B = BlaschkeProduct(zeros=random_zeros(np.random.default_rng(59), 3))
        phis, vals, M = circle_quad._grid_scan(B)
        cands, evals = circle_quad._candidate_rotations(B, circle_quad._seed_ladders(B))
        step = 2.0 * math.pi / 256
        order = np.argsort(vals)[::-1]
        assert evals == M
        assert cands == [(float(phis[r]), step) for r in order[:2]]
        assert 0 not in order[:3]

    def test_a_zero_near_the_circle_adds_its_aligned_family_once(self):
        # a double zero is one direction: one five-point stencil
        d = 1e-9
        a = (1.0 - d) * cmath.exp(1.234j)
        B = BlaschkeProduct(zeros=(a, a))
        cands, _ = circle_quad._candidate_rotations(B, circle_quad._seed_ladders(B))
        gamma, d = float(np.angle(a)), 1.0 - abs(a)
        family = [(gamma + t * d, 2.0 * d) for t in (0.0, -0.5, 0.5, -1.0, 1.0)]
        assert len(cands) == 7 and cands[-5:] == family
        keys = [round(phi / 1e-15) for phi, _ in cands]
        assert len(set(keys)) == len(keys)

    def test_a_ray_offers_one_stencil_from_its_zero_nearest_the_circle(self):
        # the n = 3, q = 0.001 study symbol on the ray e^{0.7i}: the grid's
        # two and one five-point stencil, where the 13-point screen offered
        # 13 and one stencil per near-circle zero 29
        B = BlaschkeProduct(zeros=ray_zeros(3, 0.001))
        cands, _ = circle_quad._candidate_rotations(B, circle_quad._seed_ladders(B))
        inner = B.zeros[-1]
        gamma, d = float(np.angle(inner)), 1.0 - abs(inner)
        assert len(cands) == 7
        assert cands[-5:] == [(gamma + t * d, 2.0 * d) for t in (0.0, -0.5, 0.5, -1.0, 1.0)]

    @pytest.mark.parametrize("gap, nested", [(5.9, True), (6.1, False)])
    def test_directions_within_reach_keep_the_nine_point_stencil(self, gap, nested):
        # two zeros on their own directions, gap (d1 + d2) apart: the reach of
        # a nine-point stencil is 6 d, its +-4d points plus their half-width
        d1, d2 = 1e-9, 1e-7
        a1 = (1.0 - d1) * cmath.exp(0.9j)
        a2 = (1.0 - d2) * cmath.exp(1j * (0.9 + gap * (d1 + d2)))
        B = BlaschkeProduct(zeros=(a1, a2))
        ladders = circle_quad._seed_ladders(B)
        assert len(ladders[0]) == 2
        cands, _ = circle_quad._candidate_rotations(B, ladders)
        ts = circle_quad._NESTED_STENCIL if nested else circle_quad._STENCIL
        assert cands[2:] == [
            (gamma + t * (1.0 - rho), 2.0 * (1.0 - rho)) for gamma, rho in B.polar for t in ts
        ]

    @pytest.mark.parametrize("group", ["lambda-panel", "bit-pins", "hard-inputs"])
    def test_zeros_that_share_no_direction_keep_the_per_zero_candidates(self, group):
        # the benchmark's Lambda panel (seed 0, rounds 0-7), the bit-pinned
        # products but the ray, and the hard inputs but the rays: every zero
        # has its own direction, so the candidates are one stencil per
        # near-circle zero, in the order of the zeros, as before
        if group == "lambda-panel":
            symbols = lambda_panel_symbols(seed=0, rounds=8)
        elif group == "bit-pins":
            symbols = [BlaschkeProduct(zeros=zeros) for zeros, *_ in TestLambdaBitPins.RECORDED]
            symbols = [B for B in symbols if len(circle_quad._seed_ladders(B)[0]) == B.degree]
            assert len(symbols) == len(TestLambdaBitPins.RECORDED) - 1
        else:
            names = ("degree-20", "two-at-1e-12", "five-1e-9-apart")
            symbols = [BlaschkeProduct(zeros=TestHardInputs.CASES[name]) for name in names]
        for B in symbols:
            ladders = circle_quad._seed_ladders(B)
            assert len(ladders[0]) == B.degree
            assert circle_quad._candidate_rotations(B, ladders) == per_zero_candidates(B, ladders)


class TestSeedLadders:
    @pytest.mark.parametrize("n, q", [(3, 0.001), (8, 0.03)])
    def test_a_ray_seeds_the_edges_of_its_zero_nearest_the_circle_alone(self, n, q):
        # the ray's zeros share one ladder, so its seed edges are those of its
        # last zero, q^n from the circle, whatever the ray and the rotation
        directions = np.exp(2j * math.pi * np.random.default_rng(83).uniform(size=4))
        for xi in (cmath.exp(0.7j), -1.0, *directions):
            zeros = _ray_zeros(xi, q, n)
            ray = circle_quad._seed_ladders(BlaschkeProduct(zeros=tuple(zeros)))
            alone = circle_quad._seed_ladders(BlaschkeProduct(zeros=(zeros[-1],)))
            gamma = cmath.phase(zeros[-1])
            for phi in (0.0, gamma, gamma + 1e-9, gamma - 0.3, 2.0, -2.5):
                edges = circle_quad._seed_edges_for_rotation(ray, [phi])
                assert np.array_equal(edges, circle_quad._seed_edges_for_rotation(alone, [phi]))

    def test_zeros_at_distinct_angles_keep_their_own_ladders(self):
        # five zeros 1e-9 from the circle and 1e-9 apart: each angle is a
        # width away from the next, far past the shared-direction tolerance
        zeros = TestHardInputs.CASES["five-1e-9-apart"]
        gammas, counts, rungs, row = circle_quad._seed_ladders(BlaschkeProduct(zeros=zeros))
        assert len(gammas) == len(counts) == 5
        assert rungs.size == sum(counts)
        # every rotation's row starts with the base grid and the rungs
        assert np.array_equal(row, np.concatenate([circle_quad.LAMBDA_EDGES, rungs]))
        # a double zero has one direction
        gammas, _, _, _ = circle_quad._seed_ladders(BlaschkeProduct(zeros=(0.5j, 0.5j)))
        assert gammas == [cmath.phase(0.5j)]

    @pytest.mark.parametrize("gamma", [1.0, math.pi], ids=["one", "across-the-branch-cut"])
    def test_the_shared_direction_tolerance_at_its_edge(self, gamma):
        # a zero 1e-3 from the circle shares the ladder of one 1e-9 from it
        # while their angles differ by at most SHARED_DIRECTION of its width,
        # on either side; just past that it keeps its own
        inner = (1.0 - 1e-9) * cmath.exp(1j * gamma)
        width = 1e-3
        edge = circle_quad.SHARED_DIRECTION * width
        for turn, ladders in ((1.0 - 1e-6, 1), (1.0 + 1e-6, 2)):
            for side in (-1.0, 1.0):
                outer = (1.0 - width) * cmath.exp(1j * (gamma + side * turn * edge))
                gammas, counts, rungs, _ = circle_quad._seed_ladders(BlaschkeProduct(zeros=(outer, inner)))
                assert len(gammas) == ladders
                # the ladders come in the order of the zeros, and the one
                # the inner zero builds, shared or its own, is from its width
                k = ladders - 1
                assert gammas[k] == cmath.phase(inner) and rungs[sum(counts[:k])] == 0.5 * (1.0 - abs(inner))
                assert gammas[0] == cmath.phase(inner if ladders == 1 else outer)


def integrand_polar(B):
    """(gamma, rho) arrays of B's zeros as the integrand takes them: Python's
    abs, which can differ from np.abs by an ulp, and numpy's angle."""
    rho = np.array([abs(a) for a in B.zeros])
    gam = np.array([float(np.angle(a)) if abs(a) > 0 else 0.0 for a in B.zeros])
    return gam, rho


def reference_swept(B, phi):
    """The swept phase theta -> sum of per-factor boundary phase differences,
    evaluated with numpy over the factors."""
    gam, rho = integrand_polar(B)
    kappa = (1.0 + rho) / (1.0 - rho)

    def psi(u):
        m = np.round(u / (2.0 * math.pi))
        return 2.0 * math.pi * m + 2.0 * np.arctan(kappa * np.tan(0.5 * (u - 2.0 * math.pi * m)))

    return lambda theta: float(np.sum(psi(phi + theta - gam) - psi(phi - theta - gam)))


def fold_rounding(B, phi, t):
    """(S'(t), the rounding budget of a fold at t, in theta). The phase of a
    factor carries a few ulps of its argument, times its speed P, plus a few
    ulps of its value; divided by S', the sum bounds how far from a root
    each of the two phases may cross its target."""
    eps = 2.0**-53
    gam, rho = integrand_polar(B)
    slope = error = 0.0
    for u in (phi + t - gam, phi - t - gam):
        s2 = np.sin(0.5 * u) ** 2
        p = (1.0 - rho) * (1.0 + rho) / ((1.0 - rho) ** 2 + 4.0 * rho * s2)
        error += np.sum(4.0 * eps * (np.abs(u) + 8.0) * (1.0 + p))
        slope += np.sum(p)
    return slope, error / slope


def bisect_root(g, lo=0.0, hi=math.pi):
    """Root of an increasing g on [lo, hi] by plain bisection, down to the
    point where the midpoint is no longer a new float."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def kernel_at(monkeypatch, B, phi):
    """The swept-phase kernel theta -> (S, S') that B's fold solver builds
    at rotation phi, taken from its first call of _fold."""
    kernels = []
    real = circle_quad._fold

    def capture(swept, *args):
        kernels.append(swept)
        return real(swept, *args)

    monkeypatch.setattr(circle_quad, "_fold", capture)
    circle_quad._kink_solver(B)(phi)
    return kernels[0]


class TestBrentq:
    @pytest.mark.parametrize(
        "f, a, b, root",
        [
            (lambda x: math.cos(x) - x, 0.0, 1.0, 0.7390851332151607),
            (lambda x: x**3 - 2.0, 1.0, 2.0, 2.0 ** (1.0 / 3.0)),
            (lambda x: 2.0 - x**3, 1.0, 2.0, 2.0 ** (1.0 / 3.0)),
        ],
    )
    def test_finds_known_roots_within_tolerance(self, f, a, b, root):
        for xtol, rtol in ((1e-15, 8.9e-16), (1e-6, 1e-10)):
            x = circle_quad.brentq(f, a, b, xtol=xtol, rtol=rtol)
            assert abs(x - root) <= xtol + rtol * abs(x)

    def test_root_at_an_endpoint_is_returned_exactly(self):
        assert circle_quad.brentq(lambda x: x - 0.25, 0.25, 2.0, xtol=1e-15, rtol=8.9e-16) == 0.25
        assert circle_quad.brentq(lambda x: x - 2.0, 0.25, 2.0, xtol=1e-15, rtol=8.9e-16) == 2.0

    def test_typed_errors(self):
        with pytest.raises(InvalidConfiguration):
            circle_quad.brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-15, rtol=8.9e-16)
        # a sign jump with no zero and no tolerance to stop at exhausts the cap
        with pytest.raises(NumericalBreakdown):
            circle_quad.brentq(lambda x: -1.0 if x < 1.0 / 3.0 else 1.0, 0.0, 1.0, xtol=0.0, rtol=0.0)


def golden_evaluations(lo, hi, width):
    """Evaluations golden-section search spends to narrow [lo, hi] below width:
    two interior points, then one per step at a shrink factor of 0.618."""
    return 2 + math.ceil(math.log(width / (hi - lo)) / math.log((math.sqrt(5.0) - 1.0) / 2.0))


def counted(f):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


class TestLocalmax:
    @pytest.mark.parametrize(
        "f",
        [
            lambda x: -((x - 0.7) ** 2),
            lambda x: math.cos(x - 0.7),
            lambda x: 1.0 / (1.0 + 9.0 * (x - 0.7) ** 2),
        ],
    )
    def test_finds_a_smooth_peak_in_far_fewer_steps_than_golden_section(self, f):
        lo, hi, width = 0.0, 2.0, 1e-5
        g, calls = counted(f)
        x, fx = circle_quad.localmax(g, lo, hi, 1.0, f(1.0), width, 60)
        assert abs(x - 0.7) <= width
        assert fx == f(x)
        assert 2 * len(calls) <= golden_evaluations(lo, hi, width)

    def test_never_returns_below_the_seed(self):
        rng = np.random.default_rng(73)
        for _ in range(50):
            k, c = rng.uniform(3.0, 30.0, 2)
            f = lambda x: math.sin(k * x) + 0.3 * math.cos(c * x)
            seed = rng.uniform(-1.0, 1.0)
            x, fx = circle_quad.localmax(f, -1.0, 1.0, seed, f(seed), 1e-9, 60)
            assert -1.0 <= x <= 1.0
            assert fx >= f(seed)
            assert fx == f(x)

    def test_constant_function_stops_within_the_step_cap(self):
        g, calls = counted(lambda x: 1.0)
        x, fx = circle_quad.localmax(g, -1.0, 1.0, 0.0, 1.0, 1e-9, 60)
        assert len(calls) < 60
        assert fx == 1.0 and -1.0 <= x <= 1.0

    def test_step_cap_is_respected(self):
        g, calls = counted(lambda x: -abs(x - 0.3))
        circle_quad.localmax(g, -1.0, 1.0, 0.0, -0.3, 1e-13, 5)
        assert len(calls) == 5

    def test_resolves_a_peak_far_below_ulp_scaled_tolerances(self):
        # a zero within 1e-12 of the circle gives a bracket 2e-12 wide near
        # |phi| ~ 3; a tolerance growing like sqrt(eps) |x| (~4.5e-8) would
        # stop at the seed
        c = 3.0 + 4e-13
        f = lambda x: 1.0 / (1.0 + ((x - c) / 1e-12) ** 2)
        x, fx = circle_quad.localmax(f, 3.0 - 1e-12, 3.0 + 1e-12, 3.0, f(3.0), 1e-13, 60)
        assert abs(x - c) <= 1e-13
        assert fx > 0.99


class TestKinkSolver:
    def seeded_products(self):
        rng = np.random.default_rng(61)
        products = [BlaschkeProduct(zeros=random_zeros(rng, n)) for n in range(2, 7) for _ in range(3)]
        near = BlaschkeProduct(zeros=((1.0 - 1e-12) * np.exp(0.7j), 0.4 - 0.2j, -0.5j))
        return rng, products, near

    def test_nothing_to_solve_below_degree_two(self):
        assert circle_quad._kink_solver(BlaschkeProduct(zeros=())) is None
        assert circle_quad._kink_solver(BlaschkeProduct(zeros=(0.5j,))) is None

    # first fold at phi = 0.7 - 1e-9 of the near-circle product below: the
    # Newton fold on the half-angle phase, then on the one-term tangent
    # phase (8.7e-17 from the root), then the brentq fold on the three-term
    # phase, then the 60-digit root of the exact swept phase of the same
    # double zeros (mpmath, not a test dependency)
    NEAR_FOLD = (
        "0x1.47b508bae043cp-20",
        "0x1.47b508bb1dc50p-20",
        "0x1.47b50728d6c39p-20",
        1.2208043204621479105403314e-6,
    )

    def test_folds_match_recorded_bits(self):
        # float.hex of the folds scipy.optimize.brentq returned for these
        # inputs, which its port reproduced exactly; the Newton solver stops
        # at the same tolerances but at other points, so it keeps them to
        # within 1e-14. NEAR_FOLD is the one fold that the one-term phase
        # moved by more
        recorded = {
            (0.5, -0.25 + 0.1j): {
                0.3: ["0x1.467057b59e1a0p+0"],
                -2.0: ["0x1.c228c0b8ab7aap+0"],
                2.6: ["0x1.c61e396c99da1p+0"],
            },
            (0.3 + 0.4j, -0.6j, 0.7, -0.2 - 0.5j): {
                1.1: ["0x1.ace72a2817eeep-1", "0x1.a4b5f6578ef39p+0", "0x1.4b8597a7d455cp+1"],
                -0.4: ["0x1.338e0e882aaa3p-1", "0x1.2fea7b7835436p+0", "0x1.c7fe59f4be96cp+0"],
                3.0: ["0x1.43ca475e21fdcp+0", "0x1.e5906a58a2518p+0", "0x1.4c62d99c30a90p+1"],
            },
            ((1.0 - 1e-12) * cmath.exp(0.7j), 0.4 - 0.2j, -0.5j): {
                0.7 + 1e-3: ["0x1.0624e9ff131ccp-10", "0x1.b40969ea6a0f9p+0"],
                0.7 - 1e-9: [self.NEAR_FOLD[0], "0x1.b3deb18aaee36p+0"],
                -1.5: ["0x1.dae171a499fd3p-1", "0x1.19999999991cap+1"],
            },
        }
        for zeros, by_phi in recorded.items():
            solver = circle_quad._kink_solver(BlaschkeProduct(zeros=zeros))
            for phi, bits in by_phi.items():
                folds = solver(phi)
                assert len(folds) == len(bits)
                assert np.max(np.abs(folds - [float.fromhex(h) for h in bits])) <= 1e-14

    def test_the_near_circle_fold_sits_on_its_60_digit_root(self):
        # the three-term phase was 5e-9 off next to the zero, which put the
        # fold 8.9e-14 below the root; the one-term tangent phase put it
        # 8.7e-17 from it, and the half-angle phase 3.3e-17
        new, tangent, three_term, root = self.NEAR_FOLD
        fold = circle_quad._kink_solver(self.seeded_products()[2])(0.7 - 1e-9)[0]
        assert fold.hex() == new
        assert abs(fold - root) <= 5e-17 < abs(float.fromhex(tangent) - root)
        assert abs(float.fromhex(tangent) - root) <= 1e-15 < abs(float.fromhex(three_term) - root)
        assert abs(fold - float.fromhex(three_term)) <= 1e-13

    # the boundary phase psi of a factor at rho = 1 - 1e-9 (the double), at u
    # near 1e-8: 25 digits of 2 atan(kappa tan(u / 2)) with the exact
    # kappa = (1 + rho) / (1 - rho) of that rho, which mpmath at 80 digits
    # also gave from the three-term form. In double the three-term form was
    # off by up to 5.0e-9 at these points
    PSI_REFERENCES = [
        (3e-9, "2.498091561465667789304228"),
        (1e-8, "2.942255354108841763578037"),
        (2.5e-8, "3.061635281562217269015809"),
        (1e-7, "3.121593320772045849333551"),
    ]

    def test_phase_next_to_the_circle_is_accurate_to_rounding(self, monkeypatch):
        # at phi = gamma a factor sweeps psi(theta) - psi(-theta) = 2 psi(theta);
        # two equal factors sum to exactly twice one. The zero is real, so
        # its modulus is the double 1 - 1e-9 itself
        rho = 1.0 - 1e-9
        swept = kernel_at(monkeypatch, BlaschkeProduct(zeros=(rho, rho)), 0.0)
        for theta, reference in self.PSI_REFERENCES:
            one = 0.5 * swept(theta)[0]
            assert abs(one - 2.0 * float(reference)) <= math.ulp(2.0 * float(reference))

    def test_the_folds_take_the_integrands_modulus(self, monkeypatch):
        # for (1 - 1e-9) e^{0.7i}, Python's abs, which the integrand takes,
        # is the double 1 - 1e-9 and np.abs is an ulp below it, 1.1e-7 of the
        # deficit. With np.abs the fold solver's kernel at phi = gamma
        # missed 2 psi(theta) by 1.5e8 ulps; with the integrand's modulus it
        # is within an ulp, as it is for the real zero
        a = (1.0 - 1e-9) * cmath.exp(0.7j)
        assert abs(a) == 1.0 - 1e-9 != np.abs(a)
        swept = kernel_at(monkeypatch, BlaschkeProduct(zeros=(a, a)), float(np.angle(a)))
        for theta, reference in self.PSI_REFERENCES:
            one = 0.5 * swept(theta)[0]
            assert abs(one - 2.0 * float(reference)) <= math.ulp(2.0 * float(reference))

    def test_returns_increasing_interior_folds(self):
        rng, products, near = self.seeded_products()
        for B in products + [near]:
            solver = circle_quad._kink_solver(B)
            for phi in rng.uniform(-math.pi, math.pi, 4):
                folds = solver(phi)
                assert folds.shape == (B.degree - 1,)
                assert np.all(folds > 0.0) and np.all(folds < math.pi)
                assert np.all(np.diff(folds) > 0.0)

    def test_folds_are_roots_of_the_reference_phase(self):
        rng, products, near = self.seeded_products()
        for B in products:
            solver = circle_quad._kink_solver(B)
            for phi in rng.uniform(-math.pi, math.pi, 4):
                swept = reference_swept(B, phi)
                folds = solver(phi)
                for k, t in enumerate(folds, start=1):
                    target = 2.0 * math.pi * k
                    assert abs(swept(t) - target) <= 1e-12
                    assert abs(t - bisect_root(lambda x: swept(x) - target)) <= 1e-14

    def test_near_circle_folds_bracket_the_reference_phase_jump(self):
        # the phase of a factor at 1 - 1e-12 climbs 2 pi within ~1e-12 rad, so
        # a fold there is pinned by a sign change, not by a small residual
        rng, _, near = self.seeded_products()
        solver = circle_quad._kink_solver(near)
        for phi in (0.7 + 1e-3, 0.7 - 0.5, 2.0, rng.uniform(-math.pi, math.pi)):
            swept = reference_swept(near, phi)
            for k, t in enumerate(solver(phi), start=1):
                target = 2.0 * math.pi * k
                assert swept(t - 1e-14) < target < swept(t + 1e-14)
                assert abs(t - bisect_root(lambda x: swept(x) - target)) <= 1e-14

    def test_folds_agree_with_the_reference_phase_to_its_rounding(self):
        # degrees 2-20, one zero at 1 - 1e-12 and the rest log-uniform in
        # deficit, at random rotations and next to that zero's angle
        rng = np.random.default_rng(83)
        for n in range(2, 21):
            deficits = 10.0 ** rng.uniform(-12.0, 0.0, n)
            deficits[0] = 1e-12
            zeros = tuple((1.0 - deficits) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n)))
            B = BlaschkeProduct(zeros=zeros)
            solver = circle_quad._kink_solver(B)
            near = float(np.angle(zeros[0])) + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-13.0, -1.0)
            for phi in (near, *rng.uniform(-math.pi, math.pi, 2)):
                folds = solver(phi)
                assert folds.shape == (n - 1,)
                assert folds[0] > 0.0 and folds[-1] < math.pi and np.all(np.diff(folds) > 0.0)
                swept = reference_swept(B, phi)
                for k, t in enumerate(folds, start=1):
                    target = 2.0 * math.pi * k
                    slope, budget = fold_rounding(B, phi, t)
                    w = 1e-14 + budget
                    assert swept(t - w) < target < swept(t + w)
                    if slope >= 1e-3:
                        # both phases carry the budget
                        assert abs(t - bisect_root(lambda x: swept(x) - target)) <= 1e-14 + 2.0 * budget

    def test_a_nan_phase_raises(self, monkeypatch):
        solver = circle_quad._kink_solver(BlaschkeProduct(zeros=(0.5, -0.3j, 0.2 + 0.6j)))
        monkeypatch.setattr(circle_quad.math, "atan2", lambda y, x: math.nan)
        with pytest.raises(NumericalBreakdown):
            solver(0.4)

    def test_work_budget(self, monkeypatch):
        # boundary phase evaluations on seeded panel-like products, where
        # brentq spent 11,784, and at rotations of the study symbols on the
        # ray e^{0.7i}, where it spent 6,316. There several folds sit on the
        # phase jumps of zeros near the circle, and the brackets narrowed by
        # earlier evaluations save a quarter of the work (3,374 without them).
        # A swept-phase evaluation counts as the 2 n boundary phases that
        # brentq's phase took
        rng = np.random.default_rng(67)
        panel = []
        for degree in range(2, 9):
            B = BlaschkeProduct(zeros=random_zeros(rng, degree))
            panel += [(B, phi) for phi in rng.uniform(-math.pi, math.pi, 4)]
        study = []
        for q, n in ((0.001, 3), (0.002, 3), (0.005, 2)):
            B = BlaschkeProduct(zeros=tuple((1.0 - q**k) * cmath.exp(0.7j) for k in range(1, n + 1)))
            study += [(B, 0.7 + t) for t in (0.0, 1e-9, 3e-7, -1e-6, -2e-4, 1e-3, -0.1, 2.0)]
        calls = []
        real = circle_quad._fold

        def counted(swept, *args):
            def kernel(theta):
                calls.append(theta)
                return swept(theta)

            return real(kernel, *args)

        monkeypatch.setattr(circle_quad, "_fold", counted)
        counts = []
        for cases in (panel, study):
            count = 0
            for B, phi in cases:
                calls.clear()
                circle_quad._kink_solver(B)(phi)
                count += 2 * B.degree * len(calls)
            counts.append(count)
        assert min(counts) > 0
        assert sum(counts) <= 0.7 * (11_784 + 6_316)
        assert counts[1] <= 0.45 * 6_316


class TestLambdaRegression:
    # float.hex of (Lambda, angle of eta) recorded before the rotation search
    # used Brent's localmin, when it was golden section. The products are
    # drawn like the benchmark's Lambda panel; then the n = 3, q = 0.001 study
    # symbol on the ray e^{0.7i}, one zero at 1 - 1e-9, and B(z) = z, whose
    # grid values all tie, so its eta is arbitrary. The value at 1 - 1e-9 is
    # NEEDLE's, recorded with the Gauss-Kronrod panel rule: the midpoint rule
    # before it read 1.02e-11 below the closed form.
    PANEL_SPEC = QuadratureSpec(tolerance=1e-7)
    # (zero, Lambda with the Gauss-Kronrod rule, Lambda recorded before it)
    NEEDLE = ((1.0 - 1e-9) * cmath.exp(1.234j), "0x1.fffffffd44076p+0", "0x1.fffffffd38cd3p+0")
    RECORDED = [
        (((-0.249 - 0.044j),), PANEL_SPEC, "0x1.7a619015c9310p+0", "-0x1.7bbc8af14e53ep+1"),
        (((0.675 + 0.2j), (-0.13 - 0.019j)), PANEL_SPEC, "0x1.02c184ad22363p+1", "0x1.274ac172716bbp-2"),
        (
            ((-0.149 + 0.145j), (-0.128 + 0.301j), (-0.419 - 0.68j)),
            PANEL_SPEC,
            "0x1.1b483e331e2a4p+1",
            "-0x1.0ff9968b03da8p+1",
        ),
        (
            ((-0.197 + 0.3j), (0.245 + 0.798j), (-0.193 - 0.468j), (-0.068 + 0.045j)),
            PANEL_SPEC,
            "0x1.2ac830f3a1f83p+1",
            "0x1.4657958016868p+0",
        ),
        (
            ((-0.513 - 0.537j), (-0.332 - 0.041j), (-0.577 - 0.364j), (0.28 + 0.353j), (0.017 - 0.12j)),
            PANEL_SPEC,
            "0x1.2b2e14861b662p+1",
            "-0x1.3338454465862p+1",
        ),
        (
            ((-0.66 - 0.263j), (0.064 + 0.333j), (0.127 + 0.035j))
            + ((0.445 - 0.69j), (-0.503 - 0.074j), (0.293 - 0.064j)),
            PANEL_SPEC,
            "0x1.2b6a604040aaep+1",
            "-0x1.fe3157e078f12p-1",
        ),
        (
            tuple((1.0 - 0.001**k) * cmath.exp(0.7j) for k in (1, 2, 3)),
            circle_quad.DEFAULT_LAMBDA_SPEC,
            "0x1.6c53f819ec546p+2",
            "0x1.6666666666666p-1",
        ),
        ((NEEDLE[0],), circle_quad.DEFAULT_LAMBDA_SPEC, NEEDLE[1], "0x1.3be76c8b43958p+0"),
        ((0j,), circle_quad.DEFAULT_LAMBDA_SPEC, "0x1.45f306dc9c885p+0", None),
    ]

    def test_values_and_rotations_match_the_recorded_ones(self):
        for zeros, spec, value, eta in self.RECORDED:
            r = lambda_functional(BlaschkeProduct(zeros=zeros), spec)
            assert abs(r.value - float.fromhex(value)) <= 1e-11
            if eta is not None:
                gap = math.remainder(cmath.phase(r.eta.value) - float.fromhex(eta), 2.0 * math.pi)
                assert abs(gap) <= 1e-5 * 2.0 * math.pi / 256

    def test_the_needle_moved_toward_its_closed_form(self):
        zero, value, before = self.NEEDLE
        exact = aligned_single_zero_integral(abs(zero))
        assert abs(float.fromhex(value) - exact) < abs(float.fromhex(before) - exact)

    def test_work_budget(self):
        # sum of evaluations over seeded products drawn like the Lambda panel;
        # the golden-section rotation search spent 1,282,776 here, the
        # 28-node midpoint rule 415,280, and the 4,096-node grid with a
        # 64-panel first sweep 258,072, and the 13-point screen 75,468
        rng = np.random.default_rng(2027)
        total = 0
        for degree in (1, 2, 3, 4, 5, 6) * 2:
            strata = (rng.permutation(degree) + rng.uniform(0.0, 1.0, degree)) / degree
            zeros = (0.05 + 0.8 * strata) * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, degree))
            total += lambda_functional(BlaschkeProduct(zeros=tuple(zeros)), self.PANEL_SPEC).evaluations
        assert total <= 63_603


class TestLambdaBitPins:
    # float.hex of (Lambda, angle of eta, error estimate), which must not move
    # a bit. Degrees 1-6 drawn like the benchmark's Lambda panel, the n = 3,
    # q = 0.001 study symbol on the ray e^{0.7i}, and a zero at 1 - 1e-12 with
    # two interior ones. Each entry holds the pins, recorded with the
    # 1,024-node rotation grid, the 8-panel first sweep and the one-term
    # phase, then the pins before them (4,096 nodes, 64 panels, ratio-2
    # seed ladders): each pair of values stays within the sum of their error
    # estimates, and each rotation within the widest localmin bracket. The
    # ray's error estimate moved when its three zeros came to share one seed
    # ladder; its pins before are those of one ladder per zero, which had
    # ("0x1.6c53f819ec74cp+2", "0x1.6666666666666p-1", "0x1.27166d11211a1p-33")
    # as their own pins before. The half-angle fold phase moved the folds
    # within their stopping width and so the last bits of six entries; the
    # comment above each holds its pins with the tangent-form phase. The
    # fold solver taking the integrand's moduli (Python's abs, not np.abs)
    # moved three error estimates in their last bits; the comment with "np.abs"
    # holds their pins before.
    PANEL_SPEC = TestLambdaRegression.PANEL_SPEC
    # the search's localmin stops at 1e-5 of its bracket, at most a grid step
    LOCALMIN_WIDTH = 1e-5 * 2.0 * math.pi / 256
    RECORDED = [
        (
            ((0.311 - 0.025j),),
            PANEL_SPEC,
            ("0x1.8600220fa9b32p+0", "-0x1.488dc61ac6d91p-4", "0x1.bd4a978ff2c6dp-52"),
            ("0x1.8600220fa9b32p+0", "-0x1.488dd69359a12p-4", "0x1.a153241f66217p-53"),
        ),
        (
            ((-0.283 + 0.231j), (-0.738 + 0.304j)),
            PANEL_SPEC,
            # ("0x1.1cb81d6ab38c4p+1", "0x1.5fadef5691127p+1", "0x1.466b95fa307f4p-38") with the tangent-form fold phase
            ("0x1.1cb81d6ab38c4p+1", "0x1.5fadef5691127p+1", "0x1.466ba029c8b62p-38"),
            ("0x1.1cb81d6ab38c5p+1", "0x1.5fadef5688e20p+1", "0x1.30acfea1d7e02p-51"),
        ),
        (
            ((-0.027 + 0.611j), (0.177 + 0.408j), (0.04 + 0.107j)),
            PANEL_SPEC,
            # ("0x1.0b10eb13e96cep+1", "0x1.8e1a18b2681b3p+0", "0x1.8337efb35d595p-52") with the tangent-form fold phase
            ("0x1.0b10eb13e96cep+1", "0x1.8e1a18b26c4d6p+0", "0x1.098c1add5f38bp-51"),
            ("0x1.0b10eb13e96cdp+1", "0x1.8e1a18b263db0p+0", "0x1.3ebc20ee02eb8p-51"),
        ),
        (
            ((-0.443 - 0.586j), (0.256 - 0.159j), (0.333 + 0.46j), (-0.118 + 0.124j)),
            PANEL_SPEC,
            ("0x1.11efda304b8e5p+1", "-0x1.1bcd7357dda11p+1", "0x1.ff6f8ee68b1ebp-50"),
            ("0x1.11efda304b8e5p+1", "-0x1.1bcd7357dd97dp+1", "0x1.c36a706f6356ap-51"),
        ),
        (
            ((0.1 + 0.585j), (0.075 + 0.084j), (-0.377 + 0.693j), (0.364 + 0.251j), (-0.204 + 0.229j)),
            PANEL_SPEC,
            # ("0x1.2a7d419bbfa8dp+1", "0x1.07a1231718e33p+1", "0x1.95da060377046p-46") with the tangent-form fold phase
            # ("0x1.2a7d419bbfa8dp+1", "0x1.07a1231718e33p+1", "0x1.95d53fb41d491p-46") with np.abs moduli in the fold solver
            ("0x1.2a7d419bbfa8dp+1", "0x1.07a1231718e33p+1", "0x1.95d59130df003p-46"),
            ("0x1.2a7d419bbfa8fp+1", "0x1.07a123171a217p+1", "0x1.579b341f8753bp-51"),
        ),
        (
            ((-0.324 - 0.005j), (-0.015 - 0.844j), (-0.105 + 0.259j))
            + ((-0.68 + 0.221j), (-0.076 + 0.46j), (-0.095 + 0.031j)),
            PANEL_SPEC,
            # ("0x1.2e8a2706f4c82p+1", "-0x1.96f679ee3b351p+0", "0x1.cae9e540fcf8fp-48") with the tangent-form fold phase
            # ("0x1.2e8a2706f4c81p+1", "-0x1.96f679ee3d8c9p+0", "0x1.c5d63c7b60d3ap-48") with np.abs moduli in the fold solver
            ("0x1.2e8a2706f4c81p+1", "-0x1.96f679ee3d8c9p+0", "0x1.c5cc0ce329eecp-48"),
            ("0x1.2e8a2706f4c82p+1", "-0x1.96f679ee38dc5p+0", "0x1.8b3bc1a00c7acp-51"),
        ),
        (
            tuple((1.0 - 0.001**k) * cmath.exp(0.7j) for k in (1, 2, 3)),
            circle_quad.DEFAULT_LAMBDA_SPEC,
            # ("0x1.6c53f819ec74bp+2", "0x1.6666666666666p-1", "0x1.d9333e873cde7p-28") with the tangent-form fold phase
            # ("0x1.6c53f819ec74cp+2", "0x1.6666666666666p-1", "0x1.d9333a6a0ec5cp-28") with np.abs moduli in the fold solver
            ("0x1.6c53f819ec74cp+2", "0x1.6666666666666p-1", "0x1.d93336f3b4d7ep-28"),
            ("0x1.6c53f819ec74bp+2", "0x1.6666666666666p-1", "0x1.740cb3bb98d85p-28"),
        ),
        (
            ((1.0 - 1e-12) * cmath.exp(0.3j), 0.4 - 0.3j, -0.6 + 0.1j),
            circle_quad.DEFAULT_LAMBDA_SPEC,
            # ("0x1.adb7b61475b88p+1", "0x1.3333333333331p-2", "0x1.6225a6275db66p-29") with the tangent-form fold phase
            ("0x1.adb7b61475b88p+1", "0x1.3333333333331p-2", "0x1.6225a616ee4aep-29"),
            ("0x1.adb7b61475b8ap+1", "0x1.3333333333331p-2", "0x1.49d3315dba8ccp-34"),
        ),
    ]

    def test_values_rotations_and_errors_are_bit_identical(self):
        for zeros, spec, pins, _before in self.RECORDED:
            r = lambda_functional(BlaschkeProduct(zeros=zeros), spec)
            assert (r.value.hex(), cmath.phase(r.eta.value).hex(), r.error_estimate.hex()) == pins

    def test_pins_stay_within_the_errors_of_the_pins_before(self):
        for _zeros, _spec, pins, before in self.RECORDED:
            value, eta, error = (float.fromhex(h) for h in pins)
            value0, eta0, error0 = (float.fromhex(h) for h in before)
            assert abs(value - value0) <= error + error0
            assert abs(math.remainder(eta - eta0, 2.0 * math.pi)) <= self.LOCALMIN_WIDTH


class TestFinalRecheck:
    # The final stage is one integral at the refined rotation. On these
    # zeros the refined rotation is also a leading candidate, whose tight
    # integral the search once repeated: 3,640 and 7,056 evaluations that
    # could never win. Each case holds the pins and evaluations with the
    # 1,024-node grid, the 8-panel first sweep and the one-stage screen,
    # then the pins with the 4,096-node grid and 64 panels. With the crude
    # stage before the screen, "one-zero" took 5,374 evaluations: its fourth
    # candidate now meets the loose tolerance, one refinement sweep more.
    # The screen without the third grid winner, the rotation 0 and the +-2d
    # and +-4d points of lone stencils kept every pin.
    CASES = [
        (
            (0.036882996120765336 + 0.908051741045587j,),
            QuadratureSpec(tolerance=1e-10),
            ("0x1.f0fd0129b9720p+0", "0x1.87bb3f4cb449ap+0", "0x1.6095f2f0d2be6p-39"),
            4_039,  # 5,599 with the 13-point screen, 5,374 with the crude stage, 24_046 with 4,096 nodes and 64 panels, 48_616 - 3_640 with the midpoint rule
            ("0x1.f0fd0129b9720p+0", "0x1.87bb3f4cb449ap+0", "0x1.08608d117d776p-44"),
        ),
        (
            (0.8446868283546499 + 0.535260832647459j, -0.9969742406056947 + 0.0777325340527502j),
            circle_quad.DEFAULT_LAMBDA_SPEC,
            # ("0x1.000000dd90033p+1", "0x1.212fa12da044ep-1", "0x1.ab255b53bb70bp-36") with the tangent-form fold phase
            # ("0x1.000000dd90033p+1", "0x1.212fa12da044ep-1", "0x1.ab255a7c5f08bp-36") with np.abs moduli in the fold solver
            ("0x1.000000dd90033p+1", "0x1.212fa12da044ep-1", "0x1.ab255dd0f2f7cp-36"),
            22_294,  # 35,869 with the 13-point screen, 35,899 with the crude stage, 89_941 with 4,096 nodes and 64 panels, 178_452 - 7_056 with the midpoint rule
            ("0x1.000000dd90032p+1", "0x1.212fa12da044ep-1", "0x1.1a2b5c8858263p-41"),
        ),
    ]

    @staticmethod
    def tight_rotations(monkeypatch, spec):
        """Record the rotation of every tight integral."""
        tight = []
        real = circle_quad._lambda_integral

        def recorded(f, phi, tol, *args):
            if tol == spec.tolerance:
                tight.append(phi)
            return real(f, phi, tol, *args)

        monkeypatch.setattr(circle_quad, "_lambda_integral", recorded)
        return tight

    @pytest.mark.parametrize("zeros, spec, pins, evaluations, before", CASES, ids=["one-zero", "two-zeros"])
    def test_the_returned_rotation_has_one_tight_integral(self, monkeypatch, zeros, spec, pins, evaluations, before):
        tight = self.tight_rotations(monkeypatch, spec)
        r = lambda_functional(BlaschkeProduct(zeros=zeros), spec)
        assert (r.value.hex(), cmath.phase(r.eta.value).hex(), r.error_estimate.hex()) == pins
        assert r.evaluations == evaluations
        assert len(set(tight)) == len(tight)
        assert [phi for phi in tight if np.exp(1j * phi) == r.eta.value] == [tight[0]]
        value0, eta0, error0 = (float.fromhex(h) for h in before)
        assert abs(r.value - value0) <= error0
        assert cmath.phase(r.eta.value) == eta0

    # Lambda of the products with zeros r e^{2 pi i k / n}, at tolerance
    # 1e-12, while the final stage also integrated up to three leading
    # candidates that screened above the refined value plus its error: it
    # did so on all of these but (4, 0.99), and a candidate won on five, by
    # at most 8.9e-16, against error estimates of 4.2e-13 to 6.1e-13
    SYMMETRIC = [
        ((2, 0.99), "0x1.01fa5cd55f69ap+1"),
        ((2, 0.995), "0x1.01443d53c5c91p+1"),
        ((2, 0.999), "0x1.00622f6c7e08cp+1"),
        ((3, 0.99), "0x1.0536fab393694p+1"),
        ((3, 0.995), "0x1.033f4f90fd0bdp+1"),
        ((3, 0.999), "0x1.00f335edd31e6p+1"),
        ((4, 0.99), "0x1.089ef11686965p+1"),
        ((4, 0.995), "0x1.055e9b648aa63p+1"),
        ((4, 0.999), "0x1.01926bfd84e02p+1"),
        ((5, 0.99), "0x1.0c15aed022796p+1"),
        ((5, 0.995), "0x1.079017825be73p+1"),
        ((5, 0.999), "0x1.023a7b4f3370bp+1"),
        ((6, 0.99), "0x1.0f8d3c002c412p+1"),
        ((6, 0.995), "0x1.09ca7bdffc460p+1"),
        ((6, 0.999), "0x1.02e87b47b2f73p+1"),
    ]

    @pytest.mark.parametrize("nr, before", SYMMETRIC, ids=[f"n{n}-r{r}" for (n, r), _ in SYMMETRIC])
    def test_symmetric_products_make_one_tight_integral(self, monkeypatch, nr, before):
        n, r = nr
        spec = QuadratureSpec(tolerance=1e-12)
        tight = self.tight_rotations(monkeypatch, spec)
        zeros = tuple(r * cmath.exp(2j * math.pi * k / n) for k in range(n))
        res = lambda_functional(BlaschkeProduct(zeros=zeros), spec)
        assert len(tight) == 1
        assert abs(res.value - float.fromhex(before)) <= res.error_estimate


class TestLocalminWindow:
    def test_localmin_searches_between_the_nearest_lower_screens(self, monkeypatch):
        # a unimodal surface peaking 0.3 d past the angle gamma of a zero d
        # from the circle: the best screen is the aligned candidate
        # gamma + d/2, whose window gamma + d/2 +- 2d narrows to the screens
        # at gamma and gamma + d, both below it
        a = (1.0 - 1e-6) * cmath.exp(1.0j)
        gamma, d = float(np.angle(a)), 1.0 - abs(a)
        peak = gamma + 0.3 * d

        def surface(f, phi, tol, *args):
            return 2.0 - ((phi - peak) / d) ** 2, 0.0, 15

        windows, points = [], []
        real = circle_quad.localmax

        def recorded(f, lo, hi, x, fx, width, steps):
            windows.append((lo, hi, x))

            def g(phi):
                points.append(phi)
                return f(phi)

            return real(g, lo, hi, x, fx, width, steps)

        monkeypatch.setattr(circle_quad, "_lambda_integral", surface)
        monkeypatch.setattr(circle_quad, "localmax", recorded)
        r = lambda_functional(BlaschkeProduct(zeros=(a,)))
        assert windows == [(gamma, gamma + d, gamma + 0.5 * d)]
        assert points and all(gamma <= phi <= gamma + d for phi in points)
        # localmin stops at 1e-5 of the unnarrowed window, 4 d wide
        assert abs(cmath.phase(r.eta.value) - peak) <= 1e-5 * 2.0 * d


class TestRotationRecords:
    def test_each_rotation_is_seeded_and_solved_once(self, monkeypatch):
        seeded, solved = [], []
        real_seeds = circle_quad._seed_edges_for_rotation
        real_solver = circle_quad._kink_solver

        def seeds(features, phis):
            # the candidates come as one block, the later rotations one each
            seeded.extend(phis)
            return real_seeds(features, phis)

        def solver(f):
            solve = real_solver(f)

            def counted(phi):
                solved.append(phi)
                return solve(phi)

            return counted

        monkeypatch.setattr(circle_quad, "_seed_edges_for_rotation", seeds)
        monkeypatch.setattr(circle_quad, "_kink_solver", solver)
        for zeros in ((0.5, 0.3j, -0.7 + 0.1j), (0.5, (1.0 - 1e-6) * cmath.exp(1.0j))):
            seeded.clear()
            solved.clear()
            lambda_functional(BlaschkeProduct(zeros=zeros))
            assert solved and len(set(solved)) == len(solved) == len(seeded) == len(set(seeded))
            assert set(solved) == set(seeded)

    def test_each_zero_is_put_in_polar_form_once(self, monkeypatch):
        # every kernel on the circle reads the product's (gamma, rho) pairs:
        # the grid, every sweep, the seed ladders and the fold solver, so a
        # Lambda call takes each zero's angle once, and a second call on the
        # same product none
        calls = []
        real = disk_core.zero_polar
        monkeypatch.setattr(disk_core, "zero_polar", lambda a: calls.append(a) or real(a))
        for zeros in ((0.5, 0.3j, -0.7 + 0.1j), ray_zeros(3, 0.001), TestHardInputs.CASES["two-at-1e-12"]):
            B = BlaschkeProduct(zeros=zeros)
            calls.clear()
            first = lambda_functional(B)
            assert calls == list(B.zeros)
            assert lambda_functional(B) == first
            assert calls == list(B.zeros)

    def test_work_budget(self):
        # the seeded set of TestLambdaRegression.test_work_budget, where the
        # search spent 552,368 evaluations before a rotation's integrals
        # shared their first sweep, 415,280 with the 28-node midpoint rule,
        # 258,072 with the 4,096-node grid and a 64-panel first sweep, and
        # 75,468 with the 13-point screen
        rng = np.random.default_rng(2027)
        total = 0
        for degree in (1, 2, 3, 4, 5, 6) * 2:
            strata = (rng.permutation(degree) + rng.uniform(0.0, 1.0, degree)) / degree
            zeros = (0.05 + 0.8 * strata) * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, degree))
            total += lambda_functional(BlaschkeProduct(zeros=tuple(zeros)), TestLambdaRegression.PANEL_SPEC).evaluations
        assert total <= 63_603

    def test_study_symbols_work_budget(self, monkeypatch):
        # the ten symbols of the acceptance studies on the ray e^{0.7i}: fresh
        # rotations (each seeded once) and evaluations. With a crude stage
        # before the screen, the localmin window unnarrowed and one seed
        # ladder per zero they took 269 and 252,970; with one aligned
        # stencil per near-circle zero, 213 and 132,655; with the 13-point
        # screen, 151 and 96,070
        seeded = []
        real = circle_quad._seed_edges_for_rotation

        def seeds(ladders, phis):
            seeded.extend(phis)
            return real(ladders, phis)

        monkeypatch.setattr(circle_quad, "_seed_edges_for_rotation", seeds)
        evaluations = sum(
            lambda_functional(BlaschkeProduct(zeros=ray_zeros(n, q))).evaluations
            for n, qs, _ in acceptance_plans()
            for q in qs
        )
        assert len(seeded) <= 103
        assert evaluations <= 67_960

    @staticmethod
    def uniform_first_sweep(g, panels):
        """The first sweep that _adaptive_theta makes on `panels` uniform
        panels of (0, pi), as a first sweep to resume from."""
        edges = np.linspace(0.0, math.pi, panels + 1)
        los, his = edges[:-1], edges[1:]
        return (los, his, *circle_quad._panel_estimates(g, los, his))

    def test_resumed_first_sweep_matches_a_fresh_integral(self):
        def g(theta):
            return 1.0 / (1e-8 + (theta - 1.0) ** 2)

        panels = circle_quad.LAMBDA_EDGES.size - 1
        first = self.uniform_first_sweep(g, panels)
        swept = circle_quad._NODE_OFFSETS.size * panels
        for tol in (1e-2, 1e-5, 1e-8):
            val, err, evals = circle_quad._adaptive_theta(g, 0.0, math.pi, tol, panels)
            resumed = circle_quad._adaptive_theta(g, 0.0, math.pi, tol, first=first)
            assert resumed == (val, err, evals - swept)

    @pytest.mark.parametrize("panels", [8, 64])
    def test_a_first_sweep_within_its_shares_returns_the_loops_sums(self, panels):
        # a resumed first sweep whose every panel is below its share returns
        # before the loop, with the tuple that the loop's single pass gives
        # the fresh integral over the same sweep, bit for bit; one that
        # passes only the global test, with a panel above its share, and one
        # that refines go through the loop to the same ends
        def g(theta):
            return 1.0 / (1e-3 + (theta - 1.0) ** 2)

        first = self.uniform_first_sweep(g, panels)
        los, his, _est, err = first
        # the tolerance at which each panel meets its share
        meets = err / (0.5 * (his - los) / math.pi)
        swept = circle_quad._NODE_OFFSETS.size * panels
        ends = set()
        for tol in np.geomspace(0.5 * np.sum(err), 2.0 * np.max(meets), 41):
            val, error, evals = circle_quad._adaptive_theta(g, 0.0, math.pi, tol, panels)
            resumed = circle_quad._adaptive_theta(g, 0.0, math.pi, tol, first=first)
            assert type(resumed[0]) is type(val) is complex
            bits = [x.hex() for x in (val.real, val.imag, error)]
            assert [x.hex() for x in (resumed[0].real, resumed[0].imag, resumed[1])] == bits
            assert resumed[2] == evals - swept
            ends.add("refined" if evals > swept else "within" if tol >= np.max(meets) else "global")
        assert ends == {"refined", "global", "within"}

    def test_a_failed_integral_leaves_its_first_sweep_reusable(self, monkeypatch):
        def g(theta):
            return 1.0 / (1e-8 + (theta - 1.0) ** 2)

        monkeypatch.setattr(circle_quad, "MAX_DEPTH", 2)
        panels = circle_quad.LAMBDA_EDGES.size - 1
        with pytest.raises(ToleranceNotMet) as fresh:
            circle_quad._adaptive_theta(g, 0.0, math.pi, 1e-8, panels)
        first = self.uniform_first_sweep(g, panels)
        kept = [a.copy() for a in first]
        for _ in range(2):
            with pytest.raises(ToleranceNotMet) as resumed:
                circle_quad._adaptive_theta(g, 0.0, math.pi, 1e-8, first=first)
            assert resumed.value.value == fresh.value.value
            assert resumed.value.evaluations == fresh.value.evaluations - circle_quad._NODE_OFFSETS.size * panels
        assert all(np.array_equal(a, b) for a, b in zip(first, kept))


def kronrod15():
    """The 7-15 Gauss-Kronrod pair on [-1, 1], derived rather than copied:
    (nodes in increasing order, Kronrod weights, Gauss weights, 0 off the
    Gauss nodes). The Gauss nodes come from numpy's leggauss; the other eight
    are the roots of the Stieltjes polynomial E_8 = P_8 + sum_{j<8} c_j P_j,
    orthogonal to P_7 P_k for every k < 8; the Kronrod weights solve the
    moment equations of degree 0-14."""
    leg = np.polynomial.legendre
    xg, wg = leg.leggauss(7)
    x, w = leg.leggauss(20)  # exact to degree 39 for the products P_7 P_k P_j
    V = leg.legvander(x, 8)
    moments = np.einsum("i,ik,ij->kj", w * V[:, 7], V[:, :8], V)
    c = np.linalg.solve(moments[:, :8], -moments[:, 8])
    nodes = np.sort(np.concatenate([xg, leg.legroots(np.append(c, 1.0))]))
    wk = np.linalg.solve(leg.legvander(nodes, 14).T, 2.0 * np.eye(15)[0])
    wgk = np.zeros(15)
    wgk[np.searchsorted(nodes, xg)] = wg
    return nodes, wk, wgk


def reference_panel_estimates(g, los, his):
    """The panel estimates one panel at a time, in QUADPACK's qk15 form: g
    at centre + half-length * node, each rule's sum times the half-length."""
    nodes, wk, wg = kronrod15()
    est, err = [], []
    for lo, hi in zip(los, his):
        centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        vals = np.asarray(g(centre + half * nodes))
        k, gauss = half * np.sum(wk * vals), half * np.sum(wg * vals)
        est.append(k)
        err.append(abs(k - gauss) + 5e-17 * abs(k))
    return np.array(est), np.array(err)


def monomial_integrals(degree, los, his):
    """Exact integrals of theta^degree over each panel."""
    return (his ** (degree + 1) - los ** (degree + 1)) / (degree + 1)


class TestPanelEstimates:
    PANELS = (np.array([0.0, 0.3, 1.0, 2.5]), np.array([0.3, 1.0, 2.5, math.pi]))

    def test_constants_are_the_derived_rule(self):
        nodes, wk, wg = kronrod15()
        assert circle_quad._NODE_OFFSETS.shape == (15,)
        np.testing.assert_allclose(circle_quad._NODE_OFFSETS, 0.5 + 0.5 * nodes, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(circle_quad._KRONROD_WEIGHTS, 0.5 * wk, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(circle_quad._GAUSS_WEIGHTS, 0.5 * wg, rtol=0.0, atol=1e-15)

    def test_fifteen_nodes_strictly_inside_every_panel(self):
        offsets = circle_quad._NODE_OFFSETS
        assert offsets.size == 15 and np.all(np.diff(offsets) > 0.0)
        assert 0.0 < offsets[0] and offsets[-1] < 1.0
        # a panel at theta = 0 as narrow as MAX_DEPTH bisections of the
        # narrower base panel, integrate_circle's
        width = 2.0 * math.pi / circle_quad.CIRCLE_PANELS / 2.0**circle_quad.MAX_DEPTH
        for lo, hi in ((0.0, width), (0.0, math.pi), (1.0, 1.0 + 1e-9)):
            nodes = lo + (hi - lo) * offsets
            assert np.all(nodes > lo) and np.all(nodes < hi)

    def test_rows_are_panel_major(self):
        seen = []

        def g(theta):
            seen.append(theta.copy())
            return np.ones_like(theta)

        los, his = self.PANELS
        circle_quad._panel_estimates(g, los, his)
        assert len(seen) == 1 and seen[0].shape == (15 * los.size,)
        rows = seen[0].reshape(los.size, 15)
        np.testing.assert_array_equal(rows, los[:, None] + (his - los)[:, None] * circle_quad._NODE_OFFSETS)

    def test_gauss_and_kronrod_agree_to_rounding_up_to_degree_thirteen(self):
        los, his = self.PANELS
        for degree in range(14):
            _, err = circle_quad._panel_estimates(lambda t: t**degree, los, his)
            exact = monomial_integrals(degree, los, his)
            assert np.all(err <= 1e-14 * exact)
        # the first degree the Gauss rule misses is far above rounding
        _, err = circle_quad._panel_estimates(lambda t: t**14, np.array([0.0]), np.array([1.0]))
        assert err[0] > 1e-8 / 15.0

    def test_kronrod_is_exact_to_rounding_up_to_degree_twenty_two(self):
        los, his = self.PANELS
        for degree in range(23):
            k, _ = circle_quad._panel_estimates(lambda t: t**degree, los, his)
            np.testing.assert_allclose(k, monomial_integrals(degree, los, his), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize(
        "seeds, panels",
        [(None, 64), (np.geomspace(1e-9, 3.0, 400) + 1.0e-3, 64), (None, 1)],
        ids=["no-seeds", "dense-seeds", "one-panel"],
    )
    def test_fresh_and_resumed_integrals_match_the_per_panel_reference(self, monkeypatch, seeds, panels):
        B = BlaschkeProduct(zeros=((1.0 - 1e-7) * cmath.exp(1.0j), 0.4 - 0.3j, -0.6))

        def oscillation(theta):
            both = boundary_values(B, 1.0, offset=theta)
            fp, fm = both[: theta.size], both[theta.size :]
            return np.abs(fp - fm) / (2.0 * np.sin(0.5 * theta))

        def peak(theta):
            return np.exp(1j * theta) / (1e-8 + (theta - 1.0) ** 2)

        edges = np.linspace(0.0, math.pi, panels + 1)
        if seeds is not None:
            edges = np.unique(np.concatenate([edges, seeds[(seeds > 0.0) & (seeds < math.pi)]]))
        los, his = edges[:-1], edges[1:]
        for g in (oscillation, peak):
            results = []
            for estimates in (circle_quad._panel_estimates, reference_panel_estimates):
                monkeypatch.setattr(circle_quad, "_panel_estimates", estimates)
                first = (los, his, *estimates(g, los, his))
                for tol, resume in ((1e-3, first), (1e-7, None), (1e-9, first)):
                    results.append(circle_quad._adaptive_theta(g, 0.0, math.pi, tol, panels, resume))
                results.append(first)
            new, ref = results[:4], results[4:]
            # panels whose error is at rounding level may be accepted in
            # another sweep, so the integrals agree within their errors
            for (val, err, _), (val0, err0, _) in zip(new[:3], ref[:3]):
                assert abs(val - val0) <= err + err0 + 1e-14 * abs(val0)
            # the first sweep has the same panels, each estimate and error
            # within rounding of the reference's: nodes placed by another
            # formula move g's values by ulps times its relative slope
            assert np.array_equal(new[3][0], ref[3][0]) and np.array_equal(new[3][1], ref[3][1])
            scale = np.abs(ref[3][2]) + ref[3][3]
            assert np.all(np.abs(new[3][2] - ref[3][2]) <= 1e-12 * scale)
            assert np.all(np.abs(new[3][3] - ref[3][3]) <= 1e-12 * scale)


def ray_zeros(n, q):
    """The zeros (1 - q^k) e^{0.7i}, k = 1..n, of a study symbol on the ray e^{0.7i}."""
    return tuple((1.0 - q**k) * cmath.exp(0.7j) for k in range(1, n + 1))


class TestHardInputs:
    # the first slice of a hard-input gate: high degree, zeros within 1e-12
    # of the circle, a tight cluster next to it, and two ray symbols of
    # degree 6 and 8, whose supremum sits on the ray; the five take about
    # 0.2 s together
    RAYS = {"ray-n6-q0.01": (6, 0.01), "ray-n8-q0.03": (8, 0.03)}
    # evaluation ceilings on the rays, whose zeros share one seed ladder and
    # one aligned stencil; with one stencil per near-circle zero they took
    # 76,999 and 124,999, and with one ladder per zero as well 218,284 and
    # 349,024. The half-angle fold phase moved their folds within the fold
    # solver's stopping width, and the moved panel edges cost two and four
    # refinement panels more: 27,139 and 30,469 with the tangent-form phase.
    # With the integrand's moduli the folds sit on the integrand's own (at
    # the stencil rotations of four rays, within 0.02 of the stopping width
    # of 60-digit roots, against 3.5 with np.abs moduli), and the moved
    # edges cost two panels more: 27,169 and 30,529 with np.abs moduli. The
    # five-point stencil and the two grid winners in place of the 13-point
    # screen took them from 27,199 and 30,559
    RAY_EVALUATIONS = {"ray-n6-q0.01": 18_199, "ray-n8-q0.03": 20_929}
    CASES = {
        "degree-20": random_zeros(np.random.default_rng(97), 20, rmax=0.95),
        "two-at-1e-12": ((1.0 - 1e-12) * cmath.exp(0.4j), (1.0 - 1e-12) * cmath.exp(-2.1j)),
        "five-1e-9-apart": tuple((1.0 - 1e-9) * cmath.exp(1j * (0.9 + k * 1e-9)) for k in range(5)),
        **{name: ray_zeros(n, q) for name, (n, q) in RAYS.items()},
    }

    # 20 zeros at 1 - 1e-6, 0.3 rad apart: twenty lone directions, so twenty
    # five-point stencils. The 13-point screen took 1,449,964 evaluations
    # for the same value
    OUTLIER = tuple((1.0 - 1e-6) * cmath.exp(0.3j * k) for k in range(20))

    @staticmethod
    def gated(zeros):
        """Lambda of the product of zeros, checked: a finite value and error,
        and 0 < Lambda <= 2n."""
        r = lambda_functional(BlaschkeProduct(zeros=zeros))
        assert math.isfinite(r.value) and math.isfinite(r.error_estimate)
        assert 0.0 <= r.error_estimate
        assert 0.0 < r.value <= 2.0 * len(zeros)
        return r

    @pytest.mark.parametrize("name", CASES)
    def test_finite_value_and_error_within_the_degree_cap(self, name):
        r = self.gated(self.CASES[name])
        if name in self.RAYS:
            assert abs(r.eta.value - cmath.exp(0.7j)) <= 1e-12
            assert r.evaluations <= self.RAY_EVALUATIONS[name]

    def test_the_degree_twenty_outlier_keeps_its_value(self):
        r = self.gated(self.OUTLIER)
        assert r.value.hex() == "0x1.000965e1809fdp+1"  # 2.0002868033491255
        assert r.evaluations <= 818_674

    # the n = 8 ray's folds at its winning rotation, 0.7 exactly: 60-digit
    # roots (mpmath, not a test dependency) of the swept phase built from
    # the zeros' angles and moduli as the integrand takes them
    # (disk_core.zero_polar), each root taken as exact
    RAY_FOLD_ROOTS = (
        "3.728864130411286325616302e-12",
        "1.262076682016860668138201e-10",
        "4.20882442895725997241772e-9",
        "1.402962278151841818967912e-7",
        "4.676696627027677510469863e-6",
        "1.560269736026557717856601e-4",
        "5.319418922391246668525664e-3",
    )

    def test_ray_folds_sit_well_inside_the_fold_solvers_stopping_width(self):
        # a fold edge 0.5e-15 off the integrand's fold moved this ray's
        # Lambda by 7.8e-9, and its error estimate did not show it; the
        # folds sit within 0.02 stopping widths of their roots, and must
        # stay within 0.1
        B = BlaschkeProduct(zeros=self.CASES["ray-n8-q0.03"])
        assert cmath.phase(lambda_functional(B).eta.value) == 0.7
        folds = circle_quad._kink_solver(B)(0.7)
        assert len(folds) == len(self.RAY_FOLD_ROOTS)
        for fold, root in zip(folds, self.RAY_FOLD_ROOTS):
            width = 1e-15 + 8.9e-16 * fold
            assert abs(Decimal(fold) - Decimal(root)) <= Decimal(0.1 * width)

    def test_degree_twenty_moved_only_up_its_peak(self):
        # float.hex of (Lambda, angle of eta, error) with the crude stage
        # before the screen. The narrowed localmin window moved eta by
        # 1.5e-7, inside localmin's stopping width, and raised Lambda by
        # 1.2e-12, past the quadrature error: a higher point of the same peak
        zeros = self.CASES["degree-20"]
        before = ("0x1.68b17ad580061p+1", "0x1.23b80f01020eep-2", "0x1.69b888b042672p-43")
        value0, eta0, error0 = (float.fromhex(h) for h in before)
        r = lambda_functional(BlaschkeProduct(zeros=zeros))
        assert r.value >= value0 - error0 - r.error_estimate
        # localmin stops at 1e-5 of the window 2 d around the zero it aligns with
        d = min((abs(cmath.phase(z) - eta0), 1.0 - abs(z)) for z in zeros)[1]
        assert abs(cmath.phase(r.eta.value) - eta0) <= 1e-5 * 2.0 * d


def ratio_two_ladders(f):
    """_seed_ladders before its rungs were spaced by 4: d 2^k from d/2 out to pi."""
    gammas, counts, rungs = [], [], []
    for a in f.zeros:
        width = 1.0 - abs(a)
        ks = int(math.ceil(math.log2(max(math.pi / width, 2.0)))) + 1
        gammas.append(float(np.angle(a)) if abs(a) > 0 else 0.0)
        counts.append(ks + 1)
        rungs.append(width * 2.0 ** np.arange(-1, ks))
    return with_row(gammas, counts, rungs)


def per_zero_ladders(f):
    """_seed_ladders before zeros sharing a direction shared a ladder: one
    ratio-4 ladder per zero, from its own width."""
    gammas, counts, rungs = [], [], []
    for a in f.zeros:
        width = 1.0 - abs(a)
        ks = int(math.ceil(math.log(2.0 * math.pi / width, 4.0))) + 1
        gammas.append(float(np.angle(a)) if abs(a) > 0 else 0.0)
        counts.append(ks)
        rungs.append(0.5 * width * 4.0 ** np.arange(ks))
    return with_row(gammas, counts, rungs)


def with_row(gammas, counts, rungs):
    """The ladders as _seed_ladders returns them, with the row that every
    rotation shares: the base grid, as patched, then the rungs."""
    rungs = np.concatenate(rungs) if rungs else np.empty(0)
    return gammas, counts, rungs, np.concatenate([circle_quad.LAMBDA_EDGES, rungs])


def per_zero_candidates(f, ladders):
    """_candidate_rotations before the aligned candidates read the seed
    ladders: a stencil for every zero within four grid steps of the circle,
    around its own angle and scaled by its own width, in the order of the
    zeros, nine points where another such zero is within reach and five
    otherwise. ladders is not read."""
    phis, vals, grid_evals = circle_quad._grid_scan(f)
    step = 2.0 * math.pi / circle_quad.ROTATIONS
    order = np.argsort(vals)[::-1]
    cands = [(float(phis[r]), step) for r in order[:2]]
    aligned = [
        (float(np.angle(a)) if abs(a) > 0 else 0.0, 1.0 - abs(a)) for a in f.zeros if 1.0 - abs(a) < 4.0 * step
    ]
    for i, (gamma, d) in enumerate(aligned):
        reach = [abs(math.remainder(gamma - g, 2.0 * math.pi)) < 6.0 * (d + e) for g, e in aligned]
        nested = sum(reach) > 1  # itself and another
        for t in (0.0, -0.5, 0.5, -1.0, 1.0) + ((-2.0, 2.0, -4.0, 4.0) if nested else ()):
            cands.append((gamma + t * d, 2.0 * d))
    return first_of_each_angle(cands), grid_evals


def thirteen_point_candidates(f, ladders):
    """_candidate_rotations before the screen was trimmed: the grid's three
    winners, the fixed rotation 0, and a nine-point stencil for every ladder
    whose width is below four grid steps, 13 candidates for one such ladder."""
    phis, vals, grid_evals = circle_quad._grid_scan(f)
    step = 2.0 * math.pi / circle_quad.ROTATIONS
    order = np.argsort(vals)[::-1]
    cands = [(float(phis[r]), step) for r in order[:3]]
    cands.append((0.0, step))
    gammas, counts, rungs, _row = ladders
    start = 0
    for gamma, count in zip(gammas, counts):
        d = 2.0 * float(rungs[start])
        start += count
        if d < 4.0 * step:
            for t in (0.0, -0.5, 0.5, -1.0, 1.0, -2.0, 2.0, -4.0, 4.0):
                cands.append((gamma + t * d, 2.0 * d))
    return first_of_each_angle(cands), grid_evals


def first_of_each_angle(cands):
    """The candidates (phi, h) in order, each angle kept once, as
    _candidate_rotations keeps them."""
    seen = set()
    out = []
    for phi, h in cands:
        key = round(phi / 1e-15)
        if key not in seen:
            seen.add(key)
            out.append((phi, h))
    return out


def lambda_panel_symbols(seed, rounds):
    """Every symbol of the benchmark's Lambda panel (perfbench/workloads.py)
    in its first rounds on a seed: the products, their splits and the
    single factors."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    symbols = []
    for r in range(rounds):
        products, singles = workloads.LambdaPanel().make_round(workloads.rng_for(seed, 0, r))
        symbols += [B for parts in products for B in parts] + list(singles)
    return symbols


class TestSweepSizes:
    # what the 1,024-node rotation grid, the 8-panel, ratio-4 first sweep
    # and one seed ladder per direction give up against the sizes before
    # them, on the bit-pinned products and the hard inputs
    PRODUCTS = [(zeros, spec) for zeros, spec, _pins, _before in TestLambdaBitPins.RECORDED] + [
        (zeros, circle_quad.DEFAULT_LAMBDA_SPEC) for zeros in TestHardInputs.CASES.values()
    ]

    def results(self):
        return [lambda_functional(BlaschkeProduct(zeros=zeros), spec) for zeros, spec in self.PRODUCTS]

    def test_a_4096_node_grid_moves_no_bit(self, monkeypatch):
        # the grid only ranks the candidates: four times its nodes rank
        # them alike, at 3,072 more evaluations
        results = self.results()
        monkeypatch.setattr(circle_quad, "_grid_scan", lambda f: all_rows_scan(f, 256, nodes=4096))
        for r, ref in zip(results, self.results()):
            assert (r.value, r.eta.value, r.error_estimate) == (ref.value, ref.eta.value, ref.error_estimate)
            assert ref.evaluations == r.evaluations + 3_072

    def test_a_64_panel_ratio_two_first_sweep_agrees_within_the_errors(self, monkeypatch):
        # each panel carries its Gauss-Kronrod error, so the fewer seeded
        # panels cost resolution only where the adaptive loop pays for it
        results = self.results()
        monkeypatch.setattr(circle_quad, "LAMBDA_EDGES", np.linspace(0.0, math.pi, 65))
        monkeypatch.setattr(circle_quad, "_seed_ladders", ratio_two_ladders)
        for r, ref in zip(results, self.results()):
            assert abs(r.value - ref.value) <= r.error_estimate + ref.error_estimate

    def test_one_ladder_per_zero_agrees_within_the_errors(self, monkeypatch):
        # the ray symbols' zeros share a direction: their ladders and
        # aligned stencils around one centre cost evaluations for values
        # within the error estimates
        results = self.results()
        shared = [len(circle_quad._seed_ladders(BlaschkeProduct(zeros=z))[0]) < len(z) for z, _ in self.PRODUCTS]
        assert sum(shared) == 3
        monkeypatch.setattr(circle_quad, "_seed_ladders", per_zero_ladders)
        monkeypatch.setattr(circle_quad, "_candidate_rotations", per_zero_candidates)
        for r, ref, fewer in zip(results, self.results(), shared):
            assert abs(r.value - ref.value) <= r.error_estimate + ref.error_estimate
            assert r.evaluations < ref.evaluations if fewer else r.evaluations == ref.evaluations

    def test_the_parent_screen_moves_no_bit(self, monkeypatch):
        # the 13-point screen, with the grid's third winner, the rotation 0
        # and the +-2d and +-4d points of lone stencils, found the same
        # rotations on the bit-pinned products, the hard inputs and the ten
        # symbols of the acceptance studies, on the positive axis: what the
        # dropped candidates bought is nothing but evaluations
        products = self.PRODUCTS + [
            (tuple(_ray_zeros(1.0, q, n)), circle_quad.DEFAULT_LAMBDA_SPEC)
            for n, qs, _ in acceptance_plans()
            for q in qs
        ]
        results = [lambda_functional(BlaschkeProduct(zeros=zeros), spec) for zeros, spec in products]
        monkeypatch.setattr(circle_quad, "_candidate_rotations", thirteen_point_candidates)
        refs = [lambda_functional(BlaschkeProduct(zeros=zeros), spec) for zeros, spec in products]
        for r, ref in zip(results, refs):
            assert (r.value.hex(), r.eta.value, r.error_estimate.hex()) == (
                ref.value.hex(),
                ref.eta.value,
                ref.error_estimate.hex(),
            )
            assert r.evaluations < ref.evaluations

    # a cluster of three zeros 2.3e-9, 2.5e-10 and 7.3e-6 from the circle,
    # 9.1e-9 and 1.3e-4 rad apart, each its own direction, and five zeros
    # inside the disk. Lambda keeps the bits it had with the 13-point screen
    NESTED = (
        (0.6317605716345047 - 0.7751635799025618j),
        (0.6317605658836289 - 0.7751635871814149j),
        (0.6318592350365636 - 0.7750737373221911j),
        (0.8068204571797495 + 0.29919721458955406j),
        (0.16214740568567987 + 0.1330186782201254j),
        (0.04908628718736892 - 0.018357982261606887j),
        (0.10307913389797402 - 0.41009793147186496j),
        (0.4142659874444193 - 0.632953636461383j),
    )

    def test_nested_directions_need_their_nine_point_stencils(self, monkeypatch):
        # the +-2d and +-4d points of one direction lie inside the windows
        # of the other's candidates and narrow localmin's window; screened
        # without them, the cluster's Lambda reads lower by more than the
        # summed error estimates
        B = BlaschkeProduct(zeros=self.NESTED)
        r = lambda_functional(B)
        assert r.value.hex() == "0x1.429320e7b26aep+2"
        monkeypatch.setattr(circle_quad, "_NESTED_STENCIL", circle_quad._STENCIL)
        five = lambda_functional(B)
        assert r.value - five.value > r.error_estimate + five.error_estimate
        assert five.evaluations < r.evaluations

    def test_one_stencil_per_direction_agrees_on_collinear_products(self, monkeypatch):
        # 100 seeded products of 2-6 zeros on one ray, deficits log-uniform
        # in [1e-10, 0.3], a third of them with two more zeros off the ray:
        # against one stencil per near-circle zero, Lambda stays within the
        # summed error estimates, so it never reads lower by more than them,
        # for at most the evaluations and half of them in total
        rng = np.random.default_rng(131)
        products = []
        for i in range(100):
            deficits = 10.0 ** rng.uniform(-10.0, math.log10(0.3), int(rng.integers(2, 7)))
            zeros = tuple((1.0 - deficits) * cmath.exp(2j * math.pi * rng.uniform()))
            if i % 3 == 0:
                zeros += random_zeros(rng, 2, rmax=0.95)
            products.append(BlaschkeProduct(zeros=zeros))
        results = [lambda_functional(B) for B in products]
        monkeypatch.setattr(circle_quad, "_candidate_rotations", per_zero_candidates)
        refs = [lambda_functional(B) for B in products]
        for r, ref in zip(results, refs):
            assert abs(r.value - ref.value) <= r.error_estimate + ref.error_estimate
            assert r.evaluations <= ref.evaluations
        assert sum(r.evaluations for r in results) <= 0.5 * sum(ref.evaluations for ref in refs)


def unbatched_first_sweep(f, phi, ladders, kink_fn):
    """The first sweep at one rotation as it was made before the sweeps were
    batched: the base grid, the seed edges inside (0, pi) and the folds
    through np.unique, and one boundary_values call at the scalar rotation."""
    seeds = circle_quad._seed_edges_for_rotation(ladders, [phi])[0]
    if kink_fn is not None:
        seeds = np.concatenate([seeds, kink_fn(phi)])
    edges = np.unique(np.concatenate([np.linspace(0.0, math.pi, 9), seeds[(seeds > 0.0) & (seeds < math.pi)]]))
    los, his = edges[:-1], edges[1:]

    def g(theta):
        half = _half_angle_pair(theta)
        both = boundary_values(f, phi, offset=theta, half=half)
        return np.abs(both[: theta.size] - both[theta.size :]) / (2.0 * half[1].real)

    return (los, his, *circle_quad._panel_estimates(g, los, his))


class TestFirstSweeps:
    PRODUCTS = {
        "ray-n3-q0.001": ray_zeros(3, 0.001),
        "random-degree-4": random_zeros(np.random.default_rng(7), 4),
        "two-at-1e-12": TestHardInputs.CASES["two-at-1e-12"],
    }

    @staticmethod
    def traffic(monkeypatch):
        """(offsets, rotations) of every pair-form boundary_values call."""
        calls = []
        real = circle_quad.boundary_values

        def counted(B, theta, offset=None, half=None):
            if offset is not None:
                calls.append((np.size(offset), np.unique(theta).size))
            return real(B, theta, offset, half)

        monkeypatch.setattr(circle_quad, "boundary_values", counted)
        return calls

    @pytest.mark.parametrize("name", PRODUCTS)
    def test_blocks_have_the_bits_of_one_rotation_at_a_time(self, monkeypatch, name):
        # every candidate of the screen, in blocks under the default cap,
        # in blocks of two or more under a cap of twice the largest
        # rotation's nodes, and one a block under a cap of 15 nodes, below
        # any rotation's
        f = BlaschkeProduct(zeros=self.PRODUCTS[name])
        ladders, kink_fn = circle_quad._seed_ladders(f), circle_quad._kink_solver(f)
        phis = [phi for phi, _h in circle_quad._candidate_rotations(f, ladders)[0]]
        alone = [unbatched_first_sweep(f, phi, ladders, kink_fn) for phi in phis]
        nodes = [15 * first[0].size for first in alone]
        calls = self.traffic(monkeypatch)
        for cap in (circle_quad._SWEEP_BLOCK_NODES, 2 * max(nodes), 15):
            monkeypatch.setattr(circle_quad, "_SWEEP_BLOCK_NODES", cap)
            calls.clear()
            sweeps, evaluations = circle_quad._first_sweeps(f, phis, ladders, kink_fn)
            assert evaluations == sum(nodes)
            for first, ref in zip(sweeps, alone, strict=True):
                assert all(np.array_equal(a, b) for a, b in zip(first, ref, strict=True))
            assert sum(n for n, _rotations in calls) == sum(nodes)
            assert sum(rotations for _n, rotations in calls) == len(phis)
            assert all(n <= cap or rotations == 1 for n, rotations in calls)
            assert len(calls) == len(phis) if cap == 15 else any(rotations > 1 for _n, rotations in calls)

    @pytest.mark.parametrize("name", PRODUCTS)
    def test_a_lone_rotation_has_the_bits_of_the_unbatched_sweep(self, monkeypatch, name):
        # localmin and the final stage sweep one rotation a call: at a
        # zero's angle and at three seeded rotations, one boundary_values
        # call at the scalar angle, with the unbatched sweep's bits
        f = BlaschkeProduct(zeros=self.PRODUCTS[name])
        ladders, kink_fn = circle_quad._seed_ladders(f), circle_quad._kink_solver(f)
        rotations = np.random.default_rng(61).uniform(-math.pi, math.pi, 3)
        calls = self.traffic(monkeypatch)
        for phi in [cmath.phase(f.zeros[0])] + [float(phi) for phi in rotations]:
            ref = unbatched_first_sweep(f, phi, ladders, kink_fn)
            calls.clear()
            (first,), evaluations = circle_quad._first_sweeps(f, [phi], ladders, kink_fn)
            assert all(np.array_equal(a, b) for a, b in zip(first, ref, strict=True))
            assert evaluations == 15 * ref[0].size
            assert calls == [(evaluations, 1)]

    def test_no_call_passes_the_cap_but_a_lone_rotation(self, monkeypatch):
        calls = self.traffic(monkeypatch)
        lambda_functional(BlaschkeProduct(zeros=TestHardInputs.CASES["degree-20"]))
        assert any(rotations > 1 for _n, rotations in calls)
        assert all(n <= circle_quad._SWEEP_BLOCK_NODES or rotations == 1 for n, rotations in calls)


class TestPairEvaluator:
    def test_one_sweep_matches_two_separate_sweeps(self):
        # each half equals, bit for bit, a sweep of the kernel before its
        # pair form over theta and over -theta, with theta down to 1e-14 and
        # at the angle of a zero 1e-12 from the circle
        rng = np.random.default_rng(59)
        for zeros in (random_zeros(rng, 4, rmax=0.999), ((1.0 - 1e-12) * cmath.exp(0.4j), 0.3 - 0.5j)):
            B = BlaschkeProduct(zeros=zeros)
            theta = np.sort(10.0 ** rng.uniform(-14.0, math.log10(math.pi), 257))
            for phi in (2.0 * math.pi * rng.uniform(), cmath.phase(zeros[0])):
                both = boundary_values(B, phi, offset=theta)
                fp, fm = both[: theta.size], both[theta.size :]
                assert np.array_equal(fp, previous_sweep(B, phi, theta))
                assert np.array_equal(fm, previous_sweep(B, phi, -theta))


class TestBoundaryTraffic:
    def test_points_are_one_per_grid_node_and_two_per_adaptive_node(self, monkeypatch):
        # the rule behind perfbench's evals_unreported: every Lambda evaluation
        # goes through circle_quad.boundary_values, the grid scan as one point
        # per node, the Lambda integrand's pair form as two
        points = []
        real = circle_quad.boundary_values

        def counted(*args, **kwargs):
            values = real(*args, **kwargs)
            points.append(np.size(values))
            return values

        products = ((0.5, 0.3j, -0.7 + 0.1j), ((1.0 - 1e-9) * cmath.exp(1.234j), 0.2), (0.1 - 0.6j,))
        for zeros in products:
            B = BlaschkeProduct(zeros=zeros)
            M = circle_quad._grid_scan(B)[2]
            monkeypatch.setattr(circle_quad, "boundary_values", counted)
            points.clear()
            r = lambda_functional(B)
            monkeypatch.undo()
            assert sum(points) == M + 2 * (r.evaluations - M)


class TestSwallowedToleranceFailures:
    def test_evaluations_of_a_swallowed_failure_are_counted(self, monkeypatch):
        # the screens resume from first sweeps counted beforehand, so the
        # failure is forced on the first integral that refines its first
        # sweep, a screen of this ray, whose loose tolerance swallows it
        B = BlaschkeProduct(zeros=ray_zeros(2, 0.001))
        expected = lambda_functional(B).evaluations
        real = circle_quad._adaptive_theta
        raised = []

        def fail_once(*args, **kwargs):
            val, err, evals = real(*args, **kwargs)
            if not raised and evals > 0:
                raised.append(evals)
                raise ToleranceNotMet("forced", value=val, error_estimate=err, evaluations=evals)
            return val, err, evals

        monkeypatch.setattr(circle_quad, "_adaptive_theta", fail_once)
        r = lambda_functional(B)
        assert raised and raised[0] > 0
        assert r.evaluations == expected


FAULT_PROBE = """
import resource
import numpy as np
from toeplitz_bounds import BlaschkeProduct, QuadratureSpec, lambda_functional
rng = np.random.default_rng(0)
symbols = []
for degree in (1, 2, 3, 4, 5) * 4:
    r = rng.uniform(0.05, 0.95, degree)
    symbols.append(BlaschkeProduct(zeros=tuple(r * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, degree)))))
spec = QuadratureSpec(tolerance=1e-7)
for B in symbols[:2]:
    lambda_functional(B, spec)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for B in symbols:
    lambda_functional(B, spec)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / len(symbols))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="counts glibc page faults")
def test_lambda_calls_do_not_fault_heap_pages_back_in():
    # twenty products of degree 1-5 at the benchmark panel's tolerance, in a
    # fresh process: with the package's import-time 8 MB block each Lambda
    # call takes about 1 minor page fault, without it about 310, which cost
    # the benchmark's Lambda panel 18 % of its items/s
    proc = subprocess.run([sys.executable, "-c", FAULT_PROBE], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) <= 30.0
