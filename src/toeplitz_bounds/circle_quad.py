"""Quadrature on the unit circle and the oscillation functional Lambda.

The functional computed here is

    Lambda(f) = sup_eta integral_T |f(zeta*eta) - f(conj(zeta)*eta)| / |1 - zeta| dm(zeta)

with m the normalized Lebesgue measure. The integrand is even in the angle of
zeta and bounded at zeta = 1 for the symbols of interest, but it develops
peaks of width 1 - |a| when a zero a approaches the circle, so the integrator
is an adaptive bisection scheme: each panel is estimated by composite
midpoint rules at 4/8/16 cells plus two Richardson sweeps (sixth order on
smooth panels), and a panel is accepted once its internal discrepancy is
below its proportional share of the tolerance budget. Nodes are cell
midpoints, so theta = 0 is never sampled and the removable singularity needs
no special casing.

The supremum over rotations is approximated by a fixed uniform grid (shared
function values, so the grid costs one boundary sweep regardless of grid
size), a family of zero-aligned candidate rotations for zeros too close to
the circle for the grid to see, and golden-section refinement around the
winner. The reported value is therefore a certified lower estimate of the
true supremum with a quadrature error bar; no global optimality is claimed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.optimize import brentq

from .disk_core import BlaschkeProduct, CirclePoint, as_complex, boundary_values
from .errors import InvalidConfiguration, ToleranceNotMet

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class QuadratureSpec:
    """Knobs for the adaptive circle integrator.

    base_panels: initial uniform panel count on (-pi, pi], a power of two (>= 64)
        so that theta = 0 and theta = pi are panel boundaries, never nodes.
    max_depth: bisection depth limit; 42 resolves peaks of width ~1e-11.
    tolerance: absolute tolerance for the normalized (mean-value) integral.
    """

    base_panels: int = 64
    max_depth: int = 42
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.base_panels < 64 or (self.base_panels & (self.base_panels - 1)) != 0:
            raise InvalidConfiguration("base_panels must be a power of two, at least 64")
        if not (self.tolerance >= 1e-12):
            raise InvalidConfiguration("tolerance must be at least 1e-12")
        if not (1 <= self.max_depth <= 60):
            raise InvalidConfiguration("max_depth must be in [1, 60]")


DEFAULT_SPEC = QuadratureSpec()
# One order looser for Lambda: the rotation search multiplies quadrature cost.
DEFAULT_LAMBDA_SPEC = QuadratureSpec(tolerance=1e-8)


@dataclass(frozen=True)
class LambdaResult:
    """Value of Lambda(f) with the rotation that achieved it."""

    value: float
    eta: CirclePoint
    error_estimate: float
    evaluations: int


def _vectorized(f):
    """Accept array-aware callables as-is, wrap scalar-only ones."""
    probe = np.exp(1j * np.array([0.37, 1.91]))
    try:
        out = np.asarray(f(probe))
        if out.shape == probe.shape:
            return f
    except Exception:
        pass
    return np.vectorize(f)


class _PanelAccumulator:
    __slots__ = ("value", "error", "failed_error", "failures", "evaluations")

    def __init__(self):
        self.value = 0.0 + 0.0j
        self.error = 0.0
        self.failed_error = 0.0
        self.failures = 0
        self.evaluations = 0


def _adaptive_theta(g, a: float, b: float, spec: QuadratureSpec, tol_abs: float, seed_edges=None):
    """Integrate g over [a, b] adaptively; g maps a theta array to values.

    Returns (integral, error_estimate, evaluations). Panels are accepted
    individually once below their proportional share of the budget, or all at
    once when the global error estimate (accepted plus pending) is already
    below tol_abs; the share rule alone would keep splitting forever around
    integrable kinks, whose absolute contribution shrinks quadratically while
    their share shrinks only linearly. Raises ToleranceNotMet (carrying the
    best value and an honest estimate) if panels at max_depth still miss both
    tests.

    seed_edges places extra panel boundaries at known feature locations.
    Richardson error estimates are blind to structure narrower than the node
    spacing, so a peak of width 1e-9 inside a width-0.05 panel would be
    reported as converged with essentially zero error; seeding guarantees
    nodes inside every known peak from the first sweep.
    """
    acc = _PanelAccumulator()
    total_width = b - a
    npan = spec.base_panels
    edges = np.linspace(a, b, npan + 1)
    if seed_edges is not None and len(seed_edges):
        extra = np.asarray(seed_edges, dtype=float)
        extra = extra[(extra > a) & (extra < b)]
        edges = np.unique(np.concatenate([edges, extra]))
    los = edges[:-1].copy()
    his = edges[1:].copy()
    depths = np.zeros(los.size, dtype=int)

    offsets = {c: (np.arange(c) + 0.5) / c for c in (4, 8, 16)}
    while los.size:
        w = his - los
        blocks = [los[:, None] + w[:, None] * offsets[c][None, :] for c in (4, 8, 16)]
        flat = np.concatenate([blk.ravel() for blk in blocks])
        vals = np.asarray(g(flat))
        acc.evaluations += flat.size
        p = los.size
        v4 = vals[: 4 * p].reshape(p, 4)
        v8 = vals[4 * p : 12 * p].reshape(p, 8)
        v16 = vals[12 * p :].reshape(p, 16)
        m4 = w * v4.mean(axis=1)
        m8 = w * v8.mean(axis=1)
        m16 = w * v16.mean(axis=1)
        r2 = (4.0 * m8 - m4) / 3.0
        r3 = (4.0 * m16 - m8) / 3.0
        r23 = (16.0 * r3 - r2) / 15.0
        err = np.abs(r23 - r3) + 5e-17 * np.abs(r23)
        share = 0.5 * tol_abs * (w / total_width)

        done = err <= share
        acc.value += r23[done].sum()
        acc.error += float(err[done].sum())

        rest = ~done
        pending = float(err[rest].sum())
        if acc.error + acc.failed_error + pending <= tol_abs:
            acc.value += r23[rest].sum()
            acc.error += pending
            break
        if int(rest.sum()) > (1 << 20):
            # runaway subdivision: the error estimates are noise-bound and
            # finer panels cannot help, so record the best value as a failure
            # instead of exhausting memory
            acc.value += r23[rest].sum()
            acc.failed_error += pending
            acc.failures += int(rest.sum())
            break
        exhausted = rest & (depths + 1 > spec.max_depth)
        if np.any(exhausted):
            acc.value += r23[exhausted].sum()
            acc.failed_error += float(err[exhausted].sum())
            acc.failures += int(exhausted.sum())
            rest = rest & ~exhausted

        mid = 0.5 * (los[rest] + his[rest])
        los = np.concatenate([los[rest], mid])
        his = np.concatenate([mid, his[rest]])
        depths = np.concatenate([depths[rest], depths[rest]]) + 1

    total_err = acc.error + acc.failed_error
    if acc.failures:
        raise ToleranceNotMet(
            f"{acc.failures} panel(s) hit depth {spec.max_depth} above their error share",
            value=acc.value,
            error_estimate=total_err,
            evaluations=acc.evaluations,
        )
    return acc.value, total_err, acc.evaluations


def integrate_circle(f, spec: QuadratureSpec = DEFAULT_SPEC):
    """Mean of f over the unit circle: (1/2pi) * integral of f(e^{i theta}).

    f receives a complex array of boundary points and should return an array;
    scalar-only callables are wrapped. Returns (value, error_estimate).
    """
    fv = _vectorized(f)

    def g(theta):
        return np.asarray(fv(np.exp(1j * theta)))

    try:
        val, err, _ = _adaptive_theta(g, -math.pi, math.pi, spec, spec.tolerance * TWO_PI)
    except ToleranceNotMet as exc:
        raise ToleranceNotMet(
            str(exc),
            value=exc.value / TWO_PI,
            error_estimate=exc.error_estimate / TWO_PI,
            evaluations=exc.evaluations,
        ) from None
    return val / TWO_PI, err / TWO_PI


def _pair_evaluator(f):
    """Return pair(phi, theta) -> (f at e^{i(phi+theta)}, f at e^{i(phi-theta)}).

    Both halves come from one boundary sweep over the offsets [theta, -theta].
    """
    if isinstance(f, BlaschkeProduct):
        # theta is passed as an offset so factors near the rotation angle
        # keep full relative accuracy at increments far below ulp(phi)
        def sweep(phi, offset):
            return boundary_values(f, phi, offset=offset)

    else:
        fv = _vectorized(f)

        def sweep(phi, offset):
            return np.asarray(fv(np.exp(1j * (phi + offset))))

    def pair(phi, theta):
        both = sweep(phi, np.concatenate([theta, -theta]))
        return both[: theta.size], both[theta.size :]

    return pair


def _feature_scales(f):
    """(angle, width) of each boundary feature: a zero at a = (1-d) e^{i gamma}
    concentrates the symbol's phase swing in an angular window of width ~d."""
    if not isinstance(f, BlaschkeProduct):
        return ()
    return tuple(
        (float(np.angle(a)) if abs(a) > 0 else 0.0, 1.0 - abs(a)) for a in f.zeros
    )


def _seed_edges_for_rotation(features, phi: float, span: float = math.pi):
    """Panel boundaries bracketing every feature of the theta integrand.

    The integrand compares angles phi + theta and phi - theta, so a feature
    at boundary angle gamma shows up at theta = |gamma - phi| (mod 2 pi,
    folded to [0, pi]) and the pairing also creates structure at theta -> 0.
    The ladder around each feature is geometric from half the feature width
    all the way out to the integration span: a peak decays like the inverse
    square of the distance, so every dyadic annulus carries comparable mass
    and must start at its own panel edge to be estimated reliably.
    """
    seeds = []
    for gamma, width in features:
        if width <= 0.0:
            continue
        delta = math.remainder(gamma - phi, TWO_PI)
        ks = int(math.ceil(math.log2(max(span / width, 2.0)))) + 1
        ladder = width * 2.0 ** np.arange(-1, ks)
        for center in (abs(delta), 0.0):
            seeds.append(center)
            seeds.extend(center + ladder)
            seeds.extend(center - ladder)
    return seeds


def _kink_solver(f):
    """Exact interior fold locations of the Lambda integrand, per rotation.

    The numerator |f(e^{i(phi+theta)}) - f(e^{i(phi-theta)})| vanishes where
    the phase swept between the two arguments is a multiple of 2 pi. The
    swept phase is a sum of per-factor continuous boundary phases and is
    strictly increasing from 0 at theta = 0 to 2 pi n at theta = pi, so there
    are exactly n - 1 interior folds, each a bracketed root. They must become
    panel edges: a fold strictly inside a panel but hugging one edge at
    distance delta defeats the Richardson estimate, because its quadrature
    error is slope * delta^2 at every refinement level, while a fold exactly
    at an edge leaves both neighbors piecewise smooth and costs nothing.

    Returns None when there is nothing to solve (not a Blaschke product, or
    degree < 2); otherwise a callable phi -> array of fold angles in (0, pi).
    """
    if not isinstance(f, BlaschkeProduct) or f.degree < 2:
        return None
    zeros = np.asarray(f.zeros, dtype=complex)
    rho = np.abs(zeros)
    gam = np.where(rho > 0, np.angle(np.where(rho > 0, zeros, 1.0)), 0.0)
    kappa = (1.0 + rho) / (1.0 - rho)
    n = zeros.size

    def psi(u):
        # Continuous boundary phase of one Moebius factor at e^{i(u + gamma)},
        # vectorized over factors: psi(u + 2 pi) = psi(u) + 2 pi with no jumps.
        m = np.round(u / TWO_PI)
        ur = u - TWO_PI * m
        half = 0.5 * ur
        return (
            TWO_PI * m
            + half
            + np.arctan(kappa * np.tan(half))
            + np.arctan(rho * np.sin(ur) / (1.0 - rho * np.cos(ur)))
        )

    def solver(phi):
        def swept(theta):
            return float(np.sum(psi(phi + theta - gam) - psi(phi - theta - gam)))

        targets = TWO_PI * np.arange(1, n)
        return np.array(
            [brentq(lambda t, c=c: swept(t) - c, 0.0, math.pi, xtol=1e-15, rtol=8.9e-16) for c in targets]
        )

    return solver


def _lambda_integral(pair, phi: float, spec: QuadratureSpec, tol: float, features=(), kink_fn=None):
    """The inner Lambda integral at a fixed rotation angle phi.

    Uses the evenness of the integrand in theta: the mean over the circle is
    (1/pi) * integral over (0, pi).
    """

    def g(theta):
        fp, fm = pair(phi, theta)
        return np.abs(fp - fm) / (2.0 * np.sin(0.5 * theta))

    seeds = _seed_edges_for_rotation(features, phi)
    if kink_fn is not None:
        seeds = np.concatenate([seeds, kink_fn(phi)]) if len(seeds) else kink_fn(phi)
    val, err, evals = _adaptive_theta(g, 0.0, math.pi, spec, tol * math.pi, seed_edges=seeds)
    return float(val.real) / math.pi, err / math.pi, evals


def lambda_at_rotation(f, eta, spec: QuadratureSpec = DEFAULT_LAMBDA_SPEC) -> float:
    """The Lambda integrand's inner integral at one fixed rotation eta."""
    phi = float(np.angle(as_complex(eta)))
    pair = _pair_evaluator(f)
    val, _, _ = _lambda_integral(pair, phi, spec, spec.tolerance, _feature_scales(f), _kink_solver(f))
    return val


def _grid_scan(f, rotation_grid: int):
    """Estimate the Lambda integral on every grid rotation from one boundary sweep.

    The theta grid has size M = s * rotation_grid, so rotating by a grid step
    is an index shift and reflection is an index reversal; f is evaluated once.
    Terms j and M-1-j of the rotation sum are equal (the kernel is even and the
    pair is swapped), so only j < M/2 is summed and the result doubled. The
    plus and minus operands are strided windows over F repeated twice and over
    its reverse, one row per rotation, stepping by +s and -s. s is even, so M
    is even and the grid never sits on theta = 0, where the kernel is infinite.
    """
    R = rotation_grid
    s = max(16, -(-4096 // R))
    s += s % 2
    M = R * s
    half = M // 2
    theta = -math.pi + (np.arange(M) + 0.5) * (TWO_PI / M)
    if isinstance(f, BlaschkeProduct):
        F = boundary_values(f, theta)
    else:
        F = np.asarray(_vectorized(f)(np.exp(1j * theta)))
    kern = 1.0 / (2.0 * np.abs(np.sin(0.5 * theta[:half])))
    # row r: plus[r, j] = F[(j + r s) % M], minus[r, j] = F[(M - 1 - j + r s) % M]
    plus = sliding_window_view(np.concatenate([F, F]), half)[0:M:s]
    minus = sliding_window_view(np.concatenate([F[::-1], F[::-1]]), half)[M:0:-s]
    vals = np.abs(plus - minus) @ kern * (2.0 / M)
    return (np.arange(R) * (TWO_PI / R)), vals, M


def _candidate_rotations(f, rotation_grid: int):
    """Grid winners plus aligned rotations for zeros the grid cannot resolve."""
    phis, vals, grid_evals = _grid_scan(f, rotation_grid)
    order = np.argsort(vals)[::-1]
    cands = [(float(phis[r]), TWO_PI / rotation_grid) for r in order[:3]]
    cands.append((0.0, TWO_PI / rotation_grid))
    if isinstance(f, BlaschkeProduct):
        grid_res = TWO_PI / rotation_grid
        for a in f.zeros:
            d = 1.0 - abs(a)
            if d < 4.0 * grid_res:
                gamma = float(np.angle(a)) if abs(a) > 0 else 0.0
                for t in (0.0, -0.5, 0.5, -1.0, 1.0, -2.0, 2.0, -4.0, 4.0):
                    cands.append((gamma + t * d, 2.0 * d))
    seen = []
    out = []
    for phi, h in cands:
        key = round(phi / 1e-15)
        if key in seen:
            continue
        seen.append(key)
        out.append((phi, h))
    return out, grid_evals


def lambda_functional(f, spec: QuadratureSpec = DEFAULT_LAMBDA_SPEC, rotation_grid: int = 256) -> LambdaResult:
    """Supremum of the Lambda integral over rotations (certified lower estimate).

    Search: shared-grid scan over `rotation_grid` rotations, adaptive
    re-evaluation of the leading candidates, golden-section refinement around
    the best, then a final integral at the requested tolerance.
    """
    if rotation_grid < 64:
        raise InvalidConfiguration("rotation grid size must be at least 64")
    pair = _pair_evaluator(f)
    features = _feature_scales(f)
    kink_fn = _kink_solver(f)
    evals = 0

    candidates, grid_evals = _candidate_rotations(f, rotation_grid)
    evals += grid_evals

    crude = max(1e-4, spec.tolerance * 1e4)
    loose = max(1e-6, spec.tolerance * 1e2)

    loose_at = {}

    def protected(phi, tol):
        nonlocal evals
        try:
            v, e, k = _lambda_integral(pair, phi, spec, tol, features, kink_fn)
        except ToleranceNotMet as exc:
            v = float(np.real(exc.value)) / math.pi
            e = exc.error_estimate / math.pi
            k = exc.evaluations
        evals += k
        loose_at[round(phi / 1e-18)] = v
        return v, e

    scored = []
    for phi, h in candidates:
        v, _ = protected(phi, crude)
        scored.append((v, phi, h))
    scored.sort(reverse=True)
    top = scored[: min(3, len(scored))]

    best_phi, best_val, best_h = top[0][1], -1.0, top[0][2]
    for v0, phi, h in top:
        v, _ = protected(phi, loose)
        if v > best_val:
            best_val, best_phi, best_h = v, phi, h

    # Golden-section maximization of the loose-tolerance value around best_phi.
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = best_phi - best_h, best_phi + best_h
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, _ = protected(x1, loose)
    f2, _ = protected(x2, loose)
    for _ in range(60):
        if hi - lo < max(1e-13, 1e-5 * best_h):
            break
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2, _ = protected(x2, loose)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1, _ = protected(x1, loose)
    phi_star = x1 if f1 >= f2 else x2
    if max(f1, f2) < best_val:
        phi_star = best_phi

    value, err, k = _lambda_integral(pair, phi_star, spec, spec.tolerance, features, kink_fn)
    evals += k
    # A candidate may beat the refined point if the search surface is bumpy;
    # keep whichever certified value is larger.
    for v0, phi, _h in top:
        if v0 > value + err:
            v, e, k = _lambda_integral(pair, phi, spec, spec.tolerance, features, kink_fn)
            evals += k
            if v > value:
                value, err, phi_star = v, e, phi
    # Search uncertainty at the returned rotation: disagreement between the
    # loose screening value there and the final tight integral. The golden
    # bracket width would overstate it badly when the surface has cliffs at
    # the scale of the smallest zero deficit.
    agreement = abs(loose_at.get(round(phi_star / 1e-18), value) - value)
    return LambdaResult(
        value=float(value),
        eta=CirclePoint(np.exp(1j * phi_star)),
        error_estimate=float(err + agreement),
        evaluations=int(evals),
    )
