"""Seeded inputs, library calls and correctness checks for the three workloads.

Inputs come in rounds. Round r of a run is drawn from numpy's generator seeded
with (seed, r), so the same seed gives the same inputs, and every round has
the same composition, so runs on different seeds do comparable work. An item
is one timed library call: one study, one Lambda evaluation, or one Pick
problem (minimal level plus construction). Each item ends in one outcome:
OK, FAILED (a typed ToeplitzBoundsError) or, on the Pick panel only,
NOT_STRICTLY_FEASIBLE: construction refused the level that minimal_level
reported, the known defect of that function. That verdict is correct for the
level asked, so it is counted in `ok_frac` and `failed_frac`, not in the
result's `failed`; any other typed error on the Pick panel fails a check. Any
other exception ends the run.
"""

from __future__ import annotations

import math

import numpy as np

from toeplitz_bounds import circle_quad, omega_bounds, pick_interp
from toeplitz_bounds.circle_quad import DEFAULT_LAMBDA_SPEC, QuadratureSpec
from toeplitz_bounds.disk_core import BlaschkeProduct
from toeplitz_bounds.errors import NotStrictlyFeasible, NumericalBreakdown
from toeplitz_bounds.pick_interp import InterpolationProblem

# The acceptance plans: (n, q schedule, m offsets, required best lower,
# upper cap), as in tests/test_acceptance.py.
STUDY_PLANS = (
    (1, (0.3, 0.2, 0.1, 0.05), (2, 4, 8, 16), 2.7, 3.0),
    (2, (0.01, 0.005, 0.002), (1, 2), 4.4, 5.0),
    (3, (0.005, 0.002, 0.001), (1,), 6.0, 7.0),
)
STUDY_TIME_CAP = 120.0
PRODUCT_SPEC = QuadratureSpec(tolerance=1e-7)
SINGLE_FACTOR_RADII = (0.5, 0.9, 0.99, 0.999)
PICK_PROBLEMS_PER_NODE_COUNT = 10
PICK_SLACK = 1e-6

OK, FAILED, NOT_STRICTLY_FEASIBLE = "ok", "failed", "not_strictly_feasible"


def outcome(error) -> str:
    return OK if error is None else FAILED


class Checks:
    """Counts passes and failures per named check; keeps a few failure details."""

    def __init__(self):
        self.counts: dict[str, list[int]] = {}
        self.details: list[str] = []

    def record(self, name: str, ok: bool, detail: str = ""):
        passed, failed = self.counts.setdefault(name, [0, 0])
        self.counts[name] = [passed + bool(ok), failed + (not ok)]
        if not ok and len(self.details) < 20:
            self.details.append(f"{name}: {detail}")

    @property
    def failures(self) -> int:
        return sum(failed for _, failed in self.counts.values())


def rng_for(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    """Stream 0 is the timed and traced rounds, 1 the warm-up, 2 the thread-pool pass."""
    return np.random.default_rng([seed, stream, index])


def ray_direction(rng: np.random.Generator) -> complex:
    return complex(np.exp(2j * math.pi * rng.uniform()))


def check_study(checks: Checks, plan, result, elapsed: float):
    """The acceptance verdicts for one study, row by row."""
    n, _, _, lower_floor, upper_cap = plan
    finite = [r for r in result.rows if math.isfinite(r.lower)]
    best = max(r.lower for r in finite)
    worst_upper = max(r.upper for r in result.rows)
    best_q = min(r.q for r in finite if r.lower == best)
    checks.record("study.best_lower", best >= lower_floor, f"n={n}: {best!r} < {lower_floor}")
    checks.record("study.upper_cap", worst_upper <= upper_cap + 1e-6, f"n={n}: {worst_upper!r} > {upper_cap}")
    checks.record("study.best_at_smallest_q", best_q == min(r.q for r in finite), f"n={n}: best at q={best_q}")
    checks.record("study.time_cap", elapsed < STUDY_TIME_CAP, f"n={n}: {elapsed:.1f} s")
    for row in result.rows:
        if math.isfinite(row.lower):
            checks.record("study.bracket_order", row.lower <= row.upper + 1e-6,
                          f"n={n} q={row.q} m={row.m}: {row.lower!r} > {row.upper!r}")
        closed = 1.0 + 2.0 * n - sum(row.q**k for k in range(1, n + 1))
        checks.record("study.ideal_limit", abs(row.ideal_limit - closed) <= 1e-12,
                      f"n={n} q={row.q}: {row.ideal_limit!r} vs {closed!r}")


def bracket_gap(results) -> float:
    """Sum over the plans of best upper minus best lower."""
    return sum(r.best.upper - r.best.lower for r in results)


class Studies:
    """One round is one pass of the three acceptance plans on a fresh ray direction."""

    name = "studies"
    tail_percentile = 75.0

    def __init__(self):
        self.gaps: list[float] = []

    def make_round(self, rng):
        return ray_direction(rng)

    def run_round(self, xi, timed, checks):
        samples = []
        results = []
        for plan in STUDY_PLANS:
            n, qs, offs = plan[:3]
            result, error, dt = timed(omega_bounds.omega_convergence_study, n, xi, q_schedule=qs, m_offsets=offs)
            samples.append((dt, outcome(error)))
            if error is None:
                check_study(checks, plan, result, dt)
                results.append(result)
        if len(results) == len(STUDY_PLANS):
            self.gaps.append(bracket_gap(results))
        return samples


def random_zeros(rng, count: int) -> np.ndarray:
    """Moduli uniform on [0.05, 0.85], one in each of `count` equal strata in
    random order, so that rounds on different seeds cost about the same;
    angles uniform."""
    strata = (rng.permutation(count) + rng.uniform(0.0, 1.0, count)) / count
    return (0.05 + 0.8 * strata) * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, count))


class LambdaPanel:
    """One round: a random product of each degree 1..6 with a random split, then
    one single factor at each radius of SINGLE_FACTOR_RADII at a random angle."""

    name = "lambda_panel"
    tail_percentile = 95.0

    def make_round(self, rng):
        products = []
        for degree in range(1, 7):
            zeros = random_zeros(rng, degree)
            cut = int(rng.integers(1, degree)) if degree >= 2 else 0
            parts = (zeros, zeros[:cut], zeros[cut:]) if cut else (zeros,)
            products.append(tuple(BlaschkeProduct(zeros=tuple(z)) for z in parts))
        singles = [
            BlaschkeProduct(zeros=(r * np.exp(2j * math.pi * rng.uniform()),)) for r in SINGLE_FACTOR_RADII
        ]
        return products, singles

    def run_round(self, inputs, timed, checks):
        products, singles = inputs
        samples = []
        for symbols in products:
            values = []
            for B in symbols:
                res, error, dt = timed(circle_quad.lambda_functional, B, PRODUCT_SPEC)
                samples.append((dt, outcome(error)))
                values.append(None if error else res.value)
            n = symbols[0].degree
            if values[0] is not None:
                checks.record("lambda.cap_2n", values[0] <= 2.0 * n + 1e-6, f"degree {n}: {values[0]!r}")
            if len(values) == 3 and None not in values:
                excess = values[0] - values[1] - values[2]
                checks.record("lambda.subadditive", excess <= 1e-6, f"degree {n}: excess {excess:.3e}")
        for B in singles:
            res, error, dt = timed(circle_quad.lambda_functional, B, DEFAULT_LAMBDA_SPEC)
            samples.append((dt, outcome(error)))
            if error is None:
                checks.record("lambda.single_factor_cap", res.value <= 2.0 + 1e-8, f"a={B.zeros[0]!r}: {res.value!r}")
        return samples

    def check_once(self, checks):
        value = circle_quad.lambda_functional(BlaschkeProduct(zeros=(0.0,)), QuadratureSpec(tolerance=1e-12)).value
        gap = abs(value - 4.0 / math.pi)
        checks.record("lambda.identity_4_over_pi", gap <= 1e-10, f"|Lambda(z) - 4/pi| = {gap:.3e}")


def solve_pick(problem: InterpolationProblem):
    """What `pick --construct` does: minimal level, then a witness just above it."""
    mu = pick_interp.minimal_level(problem)
    return pick_interp.construct_interpolant(problem, mu * (1.0 + PICK_SLACK))


class PickPanel:
    """One round: PICK_PROBLEMS_PER_NODE_COUNT problems of each size 2..7, nodes
    uniform in radius below 0.95 and in angle, targets complex Gaussian."""

    name = "pick_panel"
    tail_percentile = 98.0

    def make_round(self, rng):
        problems = []
        for size in range(2, 8):
            for _ in range(PICK_PROBLEMS_PER_NODE_COUNT):
                nodes = rng.uniform(0.0, 0.95, size) * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, size))
                targets = rng.normal(size=size) + 1j * rng.normal(size=size)
                problems.append(InterpolationProblem(nodes=tuple(nodes), targets=tuple(targets)))
        return problems

    def run_round(self, problems, timed, checks):
        samples = []
        for problem in problems:
            cert, error, dt = timed(solve_pick, problem)
            # The known minimal_level defect has an outcome of its own. Any
            # other typed error fails a check: NumericalBreakdown is the
            # library's own residual test.
            if isinstance(error, NotStrictlyFeasible):
                samples.append((dt, NOT_STRICTLY_FEASIBLE))
            else:
                samples.append((dt, outcome(error)))
            if isinstance(error, NumericalBreakdown):
                checks.record("pick.residual", False, str(error))
            elif error is not None and not isinstance(error, NotStrictlyFeasible):
                checks.record("pick.typed_error", False, f"{type(error).__name__}: {error}")
            if error is not None:
                continue
            residual = max(cert.residuals)
            limit = 1e-8 * (1.0 + max(abs(y) for y in problem.targets))
            checks.record("pick.residual", residual <= limit, f"{residual:.3e} > {limit:.3e}")
            checks.record("pick.sup_norm_below_level", cert.sup_norm <= cert.level,
                          f"sup {cert.sup_norm!r} > level {cert.level!r}")
        return samples


WORKLOADS = {w.name: w for w in (Studies, LambdaPanel, PickPanel)}
