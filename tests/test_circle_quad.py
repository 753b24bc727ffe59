"""Adaptive circle quadrature and the oscillation functional."""

import cmath
import math
import tracemalloc

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
    lambda_at_rotation,
    lambda_functional,
)
from toeplitz_bounds import circle_quad
from toeplitz_bounds.disk_core import boundary_values

from test_disk_core import previous_sweep


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

    def test_non_blaschke_symbol_is_rejected_at_entry(self):
        for call in (lambda f: lambda_functional(f), lambda f: lambda_at_rotation(f, 1.0)):
            with pytest.raises(InvalidConfiguration):
                call(lambda z: z**2)

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
    F = boundary_values(f, theta)
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
        for f in (BlaschkeProduct(zeros=random_zeros(rng, 4)), BlaschkeProduct((0, 0))):
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

    def test_large_grid_memory_is_bounded(self):
        B = BlaschkeProduct(zeros=(0.5, 0.3j, -0.7))
        tracemalloc.start()
        try:
            _, vals, _ = circle_quad._grid_scan(B, 2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(vals))
        assert peak < 64 << 20

    def test_row_blocks_match_one_block(self, monkeypatch):
        B = BlaschkeProduct(zeros=random_zeros(np.random.default_rng(67), 4))
        _, blocked, M = circle_quad._grid_scan(B, 256)
        monkeypatch.setattr(circle_quad, "_GRID_BLOCK_BYTES", 24 * (M // 2) * 256)
        _, whole, _ = circle_quad._grid_scan(B, 256)
        # 37 rows a block: seven blocks, the last one partial
        monkeypatch.setattr(circle_quad, "_GRID_BLOCK_BYTES", 24 * (M // 2) * 37)
        _, partial, _ = circle_quad._grid_scan(B, 256)
        np.testing.assert_allclose(blocked, whole, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(partial, whole, rtol=1e-15, atol=0.0)

    def test_default_grid_scan_stays_cache_sized(self):
        B = BlaschkeProduct(zeros=(0.5, 0.3j, -0.7))
        tracemalloc.start()
        try:
            circle_quad._grid_scan(B, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


def reference_swept(B, phi):
    """The swept phase theta -> sum of per-factor boundary phase differences,
    evaluated with numpy over the factors."""
    zeros = np.asarray(B.zeros, dtype=complex)
    rho = np.abs(zeros)
    gam = np.where(rho > 0, np.angle(np.where(rho > 0, zeros, 1.0)), 0.0)
    kappa = (1.0 + rho) / (1.0 - rho)

    def psi(u):
        m = np.round(u / (2.0 * math.pi))
        ur = u - 2.0 * math.pi * m
        half = 0.5 * ur
        return (
            2.0 * math.pi * m
            + half
            + np.arctan(kappa * np.tan(half))
            + np.arctan(rho * np.sin(ur) / (1.0 - rho * np.cos(ur)))
        )

    return lambda theta: float(np.sum(psi(phi + theta - gam) - psi(phi - theta - gam)))


def fold_rounding(B, phi, t):
    """(S'(t), the rounding budget of a fold at t, in theta). The phase of a
    factor carries a few ulps of its argument, times its speed P, and the
    rounding of 1 - rho cos(u) inside _psi (and reference_swept): an absolute
    error of eps there moves atan(x), x = rho sin(u) / D, D = 1 - rho cos(u),
    by eps |x| / (D (1 + x^2)), about eps / |u| next to a zero near the
    circle. Divided by S', the sum bounds how far from a root each of the
    two phases may cross its target."""
    eps = 2.0**-53
    zeros = np.asarray(B.zeros)
    rho, gam = np.abs(zeros), np.angle(zeros)
    slope = error = 0.0
    for u in (phi + t - gam, phi - t - gam):
        s2 = np.sin(0.5 * u) ** 2
        p = (1.0 - rho) * (1.0 + rho) / ((1.0 - rho) ** 2 + 4.0 * rho * s2)
        d = (1.0 - rho) + 2.0 * rho * s2
        x = rho * np.sin(u) / d
        error += np.sum(eps * np.abs(x) / (d * (1.0 + x * x)) + 4.0 * eps * (np.abs(u) + 8.0) * (1.0 + p))
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

    def test_folds_match_recorded_bits(self):
        # float.hex of the folds scipy.optimize.brentq returned for these
        # inputs, which its port reproduced exactly; the Newton solver stops
        # at the same tolerances but at other points, so it keeps them to
        # within 1e-14
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
                0.7 - 1e-9: ["0x1.47b50728d6c39p-20", "0x1.b3deb18aaee36p+0"],
                -1.5: ["0x1.dae171a499fd3p-1", "0x1.19999999991cap+1"],
            },
        }
        for zeros, by_phi in recorded.items():
            solver = circle_quad._kink_solver(BlaschkeProduct(zeros=zeros))
            for phi, bits in by_phi.items():
                folds = solver(phi)
                assert len(folds) == len(bits)
                assert np.max(np.abs(folds - [float.fromhex(h) for h in bits])) <= 1e-14

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
        monkeypatch.setattr(circle_quad, "_psi", lambda u, kappa, rho: math.nan)
        with pytest.raises(NumericalBreakdown):
            solver(0.4)

    def test_work_budget(self, monkeypatch):
        # boundary phase evaluations on seeded panel-like products, where
        # brentq spent 11,784, and at rotations of the study symbols on the
        # ray e^{0.7i}, where it spent 6,316. There several folds sit on the
        # phase jumps of zeros near the circle, and the brackets narrowed by
        # earlier evaluations save a quarter of the work (3,374 without them)
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
        real = circle_quad._psi

        def psi(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(circle_quad, "_psi", psi)
        counts = []
        for cases in (panel, study):
            calls.clear()
            for B, phi in cases:
                circle_quad._kink_solver(B)(phi)
            counts.append(len(calls))
        assert sum(counts) <= 0.7 * (11_784 + 6_316)
        assert counts[1] <= 0.45 * 6_316


class TestLambdaRegression:
    # float.hex of (Lambda, angle of eta) recorded before the rotation search
    # used Brent's localmin, when it was golden section. The products are
    # drawn like the benchmark's Lambda panel; then the n = 3, q = 0.001 study
    # symbol on the ray e^{0.7i}, one zero at 1 - 1e-9, and B(z) = z, whose
    # grid values all tie, so its eta is arbitrary.
    PANEL_SPEC = QuadratureSpec(tolerance=1e-7)
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
        (
            ((1.0 - 1e-9) * cmath.exp(1.234j),),
            circle_quad.DEFAULT_LAMBDA_SPEC,
            "0x1.fffffffd38cd3p+0",
            "0x1.3be76c8b43958p+0",
        ),
        ((0j,), circle_quad.DEFAULT_LAMBDA_SPEC, "0x1.45f306dc9c885p+0", None),
    ]

    def test_values_and_rotations_match_the_recorded_ones(self):
        for zeros, spec, value, eta in self.RECORDED:
            r = lambda_functional(BlaschkeProduct(zeros=zeros), spec)
            assert abs(r.value - float.fromhex(value)) <= 1e-11
            if eta is not None:
                gap = math.remainder(cmath.phase(r.eta.value) - float.fromhex(eta), 2.0 * math.pi)
                assert abs(gap) <= 1e-5 * 2.0 * math.pi / 256

    def test_work_budget(self):
        # sum of evaluations over seeded products drawn like the Lambda panel;
        # the golden-section rotation search spent 1,282,776 here
        rng = np.random.default_rng(2027)
        total = 0
        for degree in (1, 2, 3, 4, 5, 6) * 2:
            strata = (rng.permutation(degree) + rng.uniform(0.0, 1.0, degree)) / degree
            zeros = (0.05 + 0.8 * strata) * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, degree))
            total += lambda_functional(BlaschkeProduct(zeros=tuple(zeros)), self.PANEL_SPEC).evaluations
        assert total <= 0.6 * 1_282_776


class TestLambdaBitPins:
    # float.hex of (Lambda, angle of eta, error estimate), which must not move
    # a bit. Degrees 1-6 drawn like the benchmark's Lambda panel, the n = 3,
    # q = 0.001 study symbol on the ray e^{0.7i}, and a zero at 1 - 1e-12 with
    # two interior ones. Each entry holds the pins, recorded with the
    # half-angle boundary kernel and the Newton fold solver, then the values
    # of the per-factor kernel and brentq folds before them, which rounded
    # differently; the pins stay within DRIFT of them.
    PANEL_SPEC = TestLambdaRegression.PANEL_SPEC
    # |dLambda|, |d angle of eta| in radians, relative change of the error estimate
    DRIFT = (1e-14, 1e-9, 1e-4)
    RECORDED = [
        (
            ((0.311 - 0.025j),),
            PANEL_SPEC,
            ("0x1.8600220fa9b32p+0", "-0x1.488dd69359dd2p-4", "0x1.eb71f439de859p-39"),
            ("0x1.8600220fa9b32p+0", "-0x1.488dd6935a552p-4", "0x1.eb72e3f73554fp-39"),
        ),
        (
            ((-0.283 + 0.231j), (-0.738 + 0.304j)),
            PANEL_SPEC,
            ("0x1.1cb81d6ab34a0p+1", "0x1.5fadef5695d05p+1", "0x1.23ccc8d8f12f9p-29"),
            ("0x1.1cb81d6ab34a0p+1", "0x1.5fadef568fabep+1", "0x1.23ccc8d9058ecp-29"),
        ),
        (
            ((-0.027 + 0.611j), (0.177 + 0.408j), (0.04 + 0.107j)),
            PANEL_SPEC,
            ("0x1.0b10eb13e96adp+1", "0x1.8e1a18b267b75p+0", "0x1.640d0d3e775e3p-32"),
            ("0x1.0b10eb13e96adp+1", "0x1.8e1a18b263781p+0", "0x1.640d0fa759d09p-32"),
        ),
        (
            ((-0.443 - 0.586j), (0.256 - 0.159j), (0.333 + 0.46j), (-0.118 + 0.124j)),
            PANEL_SPEC,
            ("0x1.11efda304bac1p+1", "-0x1.1bcd7357e180dp+1", "0x1.76c9654608953p-31"),
            ("0x1.11efda304bac0p+1", "-0x1.1bcd7357e16edp+1", "0x1.76c9657ab6bc7p-31"),
        ),
        (
            ((0.1 + 0.585j), (0.075 + 0.084j), (-0.377 + 0.693j), (0.364 + 0.251j), (-0.204 + 0.229j)),
            PANEL_SPEC,
            ("0x1.2a7d419bbead0p+1", "0x1.07a1231723325p+1", "0x1.3f97461ab737cp-29"),
            ("0x1.2a7d419bbead0p+1", "0x1.07a123171e330p+1", "0x1.3f9746a4cd70cp-29"),
        ),
        (
            ((-0.324 - 0.005j), (-0.015 - 0.844j), (-0.105 + 0.259j))
            + ((-0.68 + 0.221j), (-0.076 + 0.46j), (-0.095 + 0.031j)),
            PANEL_SPEC,
            ("0x1.2e8a2706fae99p+1", "-0x1.96f679eddfba1p+0", "0x1.c2ceaf5a1b78ap-28"),
            ("0x1.2e8a2706fae99p+1", "-0x1.96f679eddd641p+0", "0x1.c2ceb0139f166p-28"),
        ),
        (
            tuple((1.0 - 0.001**k) * cmath.exp(0.7j) for k in (1, 2, 3)),
            circle_quad.DEFAULT_LAMBDA_SPEC,
            ("0x1.6c53f819ec547p+2", "0x1.6666666666666p-1", "0x1.09bc3bec0b6c2p-29"),
            ("0x1.6c53f819ec546p+2", "0x1.6666666666666p-1", "0x1.09bc3409cf57ep-29"),
        ),
        (
            ((1.0 - 1e-12) * cmath.exp(0.3j), 0.4 - 0.3j, -0.6 + 0.1j),
            circle_quad.DEFAULT_LAMBDA_SPEC,
            ("0x1.adb7b61470292p+1", "0x1.3333333333331p-2", "0x1.9726f47ba6e08p-28"),
            ("0x1.adb7b6147028fp+1", "0x1.3333333333331p-2", "0x1.9726ee5191b11p-28"),
        ),
    ]

    def test_values_rotations_and_errors_are_bit_identical(self):
        for zeros, spec, pins, _reference in self.RECORDED:
            r = lambda_functional(BlaschkeProduct(zeros=zeros), spec)
            assert (r.value.hex(), cmath.phase(r.eta.value).hex(), r.error_estimate.hex()) == pins

    def test_pins_stay_near_the_per_factor_kernel(self):
        for _zeros, _spec, pins, reference in self.RECORDED:
            value, eta, error = (float.fromhex(h) for h in pins)
            value0, eta0, error0 = (float.fromhex(h) for h in reference)
            assert abs(value - value0) <= self.DRIFT[0]
            assert abs(math.remainder(eta - eta0, 2.0 * math.pi)) <= self.DRIFT[1]
            assert abs(error - error0) <= self.DRIFT[2] * error0


class TestRotationRecords:
    def test_each_rotation_is_seeded_and_solved_once(self, monkeypatch):
        seeded, solved = [], []
        real_seeds = circle_quad._seed_edges_for_rotation
        real_solver = circle_quad._kink_solver

        def seeds(features, phi, *args):
            seeded.append(phi)
            return real_seeds(features, phi, *args)

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

    def test_work_budget(self):
        # the seeded set of TestLambdaRegression.test_work_budget, where the
        # search spent 552,368 evaluations before a rotation's integrals
        # shared their first sweep
        rng = np.random.default_rng(2027)
        total = 0
        for degree in (1, 2, 3, 4, 5, 6) * 2:
            strata = (rng.permutation(degree) + rng.uniform(0.0, 1.0, degree)) / degree
            zeros = (0.05 + 0.8 * strata) * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, degree))
            total += lambda_functional(BlaschkeProduct(zeros=tuple(zeros)), TestLambdaRegression.PANEL_SPEC).evaluations
        assert total <= 0.8 * 552_368

    def test_resumed_first_sweep_matches_a_fresh_integral(self):
        def g(theta):
            return 1.0 / (1e-8 + (theta - 1.0) ** 2)

        spec = QuadratureSpec()
        first = []
        circle_quad._adaptive_theta(g, 0.0, math.pi, spec, 1e-2, seed_edges=[1.0], first=first)
        swept = 28 * first[0][0].size
        for tol in (1e-2, 1e-5, 1e-8):
            val, err, evals = circle_quad._adaptive_theta(g, 0.0, math.pi, spec, tol, seed_edges=[1.0])
            resumed = circle_quad._adaptive_theta(g, 0.0, math.pi, spec, tol, first=first)
            assert resumed == (val, err, evals - swept)

    def test_a_failed_integral_leaves_its_first_sweep_reusable(self):
        def g(theta):
            return 1.0 / (1e-8 + (theta - 1.0) ** 2)

        shallow = QuadratureSpec(max_depth=2)
        first = []
        with pytest.raises(ToleranceNotMet) as fresh:
            circle_quad._adaptive_theta(g, 0.0, math.pi, shallow, 1e-8, first=first)
        assert len(first) == 1
        with pytest.raises(ToleranceNotMet) as resumed:
            circle_quad._adaptive_theta(g, 0.0, math.pi, shallow, 1e-8, first=first)
        assert resumed.value.value == fresh.value.value
        assert resumed.value.evaluations == fresh.value.evaluations - 28 * first[0][0].size


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
                fp, fm = circle_quad._pair_evaluator(B)(phi, theta)
                assert np.array_equal(fp, previous_sweep(B, phi, theta))
                assert np.array_equal(fm, previous_sweep(B, phi, -theta))


class TestBoundaryTraffic:
    def test_points_are_one_per_grid_node_and_two_per_adaptive_node(self, monkeypatch):
        # the rule behind perfbench's evals_unreported: every Lambda evaluation
        # goes through circle_quad.boundary_values, the grid scan as one point
        # per node, the pair evaluator as two
        points = []
        real = circle_quad.boundary_values

        def counted(B, theta, offset=None):
            values = real(B, theta, offset)
            points.append(np.size(values))
            return values

        products = ((0.5, 0.3j, -0.7 + 0.1j), ((1.0 - 1e-9) * cmath.exp(1.234j), 0.2), (0.1 - 0.6j,))
        for zeros in products:
            B = BlaschkeProduct(zeros=zeros)
            M = circle_quad._grid_scan(B, 256)[2]
            monkeypatch.setattr(circle_quad, "boundary_values", counted)
            points.clear()
            r = lambda_functional(B)
            monkeypatch.undo()
            assert sum(points) == M + 2 * (r.evaluations - M)


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
