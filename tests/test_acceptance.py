"""Acceptance gate: every advertised guarantee, one printed verdict per check.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Each test exercises one end-to-end guarantee at its stated tolerance; the
fixtures run the three convergence studies once and share the results.
"""

import math
import time

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from toeplitz_bounds import (
    BlaschkeProduct,
    InterpolationProblem,
    QuadratureSpec,
    RayConfiguration,
    apply_toeplitz_contour,
    apply_toeplitz_residue,
    certify_lower_bound,
    construct_interpolant,
    lambda_functional,
    minimal_level,
    omega_convergence_study,
)

from test_scripts import acceptance_plans

# degree n -> (required best lower, upper cap) of its study.  The n = 1
# schedule is the documented default; the n = 2 and n = 3 schedules push q
# small enough to clear the thresholds while staying above the probe floor.
THRESHOLDS = {1: (2.7, 3.0), 2: (4.4, 5.0), 3: (6.0, 7.0)}
# (n, q schedule, m offsets, required best lower, upper cap)
STUDY_PLANS = tuple((n, qs, offs, *THRESHOLDS[n]) for n, qs, offs in acceptance_plans())
STUDY_TIME_CAP = 120.0


def _report(name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {verdict} ({detail})", flush=True)
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def studies():
    out = []
    for n, qs, offs, _, _ in STUDY_PLANS:
        start = time.perf_counter()
        result = omega_convergence_study(n, 1.0, q_schedule=qs, m_offsets=offs)
        out.append((n, result, time.perf_counter() - start))
    return out


def test_certified_brackets_close_on_the_small_degree_limits(studies):
    details = []
    ok = True
    for (n, result, elapsed), (_, _, _, lower_floor, upper_cap) in zip(studies, STUDY_PLANS):
        finite = [r for r in result.rows if math.isfinite(r.lower)]
        best = max(r.lower for r in finite)
        worst_upper = max(r.upper for r in result.rows)
        best_q = min(r.q for r in finite if r.lower == best)
        smallest_q = min(r.q for r in finite)
        ok &= best >= lower_floor
        ok &= worst_upper <= upper_cap + 1e-6
        ok &= elapsed < STUDY_TIME_CAP
        ok &= best_q == smallest_q
        details.append(f"n={n}: lower {best:.4f} >= {lower_floor}, upper {worst_upper:.4f} <= {upper_cap}, best at q={best_q}, {elapsed:.1f}s")
    _report("small-degree-bracket-limits", ok, "; ".join(details))


def test_single_factor_oscillation_stays_below_two():
    start = time.perf_counter()
    worst = 0.0
    for r in (0.0, 0.5, 0.9, 0.99, 0.999):
        for k in range(16):
            a = r * np.exp(2j * np.pi * k / 16)
            value = lambda_functional(BlaschkeProduct(zeros=(a,))).value
            worst = max(worst, value)
    elapsed = time.perf_counter() - start
    ok = worst <= 2.0 + 1e-8 and elapsed < 60.0
    _report("single-factor-oscillation-cap", ok, f"max Lambda {worst:.12f} over 80 factors, {elapsed:.1f}s")


def test_identity_symbol_matches_the_closed_form():
    value = lambda_functional(BlaschkeProduct(zeros=(0.0,)), QuadratureSpec(tolerance=1e-12)).value
    err = abs(value - 4.0 / math.pi)
    _report("identity-symbol-closed-form", err <= 1e-10, f"|Lambda(z) - 4/pi| = {err:.3e}")


def test_oscillation_is_subadditive_and_linearly_capped():
    rng = np.random.default_rng(20260815)
    spec = QuadratureSpec(tolerance=1e-7)
    worst_sub = -math.inf
    worst_cap = -math.inf
    for _ in range(100):
        n = int(rng.integers(1, 7))
        zeros = rng.uniform(0.05, 0.85, n) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))
        value = lambda_functional(BlaschkeProduct(zeros=tuple(zeros)), spec).value
        worst_cap = max(worst_cap, value - 2.0 * n)
        if n >= 2:
            cut = int(rng.integers(1, n))
            left = lambda_functional(BlaschkeProduct(zeros=tuple(zeros[:cut])), spec).value
            right = lambda_functional(BlaschkeProduct(zeros=tuple(zeros[cut:])), spec).value
            worst_sub = max(worst_sub, value - left - right)
    ok = worst_sub <= 1e-6 and worst_cap <= 1e-6
    _report(
        "oscillation-subadditivity-and-cap",
        ok,
        f"max split excess {worst_sub:.3e}, max cap excess {worst_cap:.3e} over 100 products",
    )


def test_residue_and_contour_routes_agree():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 6))
        zeros = rng.uniform(0.05, 0.8, n) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))
        coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
        h = Polynomial(coeffs)
        z = 0.5 * rng.uniform(0.0, 1.0) * np.exp(2j * np.pi * rng.uniform())
        B = BlaschkeProduct(zeros=tuple(zeros))
        v_res = apply_toeplitz_residue(B, h, z)
        v_con, _ = apply_toeplitz_contour(B, h, z)
        worst = max(worst, abs(v_res - v_con) / (1.0 + abs(v_res)))
    _report("residue-contour-agreement", worst <= 1e-8, f"max relative gap {worst:.3e} over 100 instances")


def test_interpolation_solver_hits_known_levels():
    rng = np.random.default_rng(7)
    worst_one = 0.0
    for _ in range(20):
        x = 0.9 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        y = 2.0 * (rng.normal() + 1j * rng.normal())
        mu = minimal_level(InterpolationProblem(nodes=(x,), targets=(y,)))
        worst_one = max(worst_one, abs(mu - abs(y)))
    problem = InterpolationProblem(nodes=(0.0, 0.5), targets=(0.0, 0.25))
    mu2 = minimal_level(problem)
    cert = construct_interpolant(problem, mu2 * (1.0 + 1e-6))
    grid = np.linspace(-0.7, 0.7, 21)
    dev = max(abs(cert.interpolant(t) - 0.5 * t) for t in grid)
    ok = worst_one <= 1e-10 and abs(mu2 - 0.5) <= 1e-9 and dev <= 1e-4
    _report(
        "interpolation-known-levels",
        ok,
        f"one-node gap {worst_one:.3e}, two-node level {mu2:.12f}, witness deviation {dev:.3e}",
    )


def test_certificates_are_rotation_invariant():
    def certified(xi):
        cfg = RayConfiguration(xi=xi, q=0.1, n=1, m=8)
        return certify_lower_bound(cfg).certified

    gap = abs(certified(1.0) - certified(1j))
    _report("certificate-rotation-invariance", gap < 1e-8, f"|c(1) - c(i)| = {gap:.3e}")


def test_every_emitted_bracket_is_ordered(studies):
    checked = 0
    violations = 0
    for _, result, _ in studies:
        for row in result.rows:
            if not math.isfinite(row.lower):
                continue
            checked += 1
            if row.lower > row.upper + 1e-6:
                violations += 1
    ok = violations == 0 and checked > 0
    _report("bracket-order-invariant", ok, f"{violations} violations across {checked} rows")


def test_ideal_limit_column_matches_the_closed_form(studies):
    worst = 0.0
    for n, result, _ in studies:
        for row in result.rows:
            closed = 1.0 + 2.0 * n - sum(row.q**k for k in range(1, n + 1))
            worst = max(worst, abs(row.ideal_limit - closed))
    _report("ideal-limit-closed-form", worst <= 1e-12, f"max column deviation {worst:.3e}")


def test_certified_lower_bounds_divide_by_the_level(studies):
    # The level bounds sup |h0| from above; a sampled sup-norm bounds it from
    # below, so dividing by a sample could certify too much.
    checked = 0
    violations = 0
    for _, result, _ in studies:
        for row in result.rows:
            cert = row.certificate
            if cert is None:
                continue
            checked += 1
            if cert.certified > abs(cert.functional_value) / cert.level:
                violations += 1
    ok = violations == 0 and checked > 0
    _report("certificate-divides-by-level", ok, f"{violations} rows above |V|/level across {checked} rows")
