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
the circle for the grid to see, and refinement around the winner by Brent's
localmin (ch. 5 of the book below), whose parabolic steps need far fewer
integrals than golden section on the smooth peak. The reported value is
therefore a lower estimate of the supremum (the rotation search is not
certified) with a quadrature error bar; no global optimality is claimed.

The integrand's interior folds, where the swept boundary phase crosses a
multiple of 2 pi, are found by safeguarded Newton steps on that phase, whose
derivative is a sum of Poisson kernels: each fold's bracket starts at the fold
before it and is narrowed by every phase value already computed at the
rotation. The steps are safeguarded as in Brent's root finder (R. P. Brent,
Algorithms for Minimization without Derivatives, 1973, ch. 4). `brentq`, a
line-for-line port of scipy's brentq.c, has no caller in the pipeline; it
stays only as the name the benchmark's tracer patches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .disk_core import BlaschkeProduct, CirclePoint, as_complex, boundary_values
from .errors import InvalidConfiguration, NumericalBreakdown, ToleranceNotMet

TWO_PI = 2.0 * math.pi
# Temporaries of one row block of the rotation grid scan, sized to stay in L2.
_GRID_BLOCK_BYTES = 1 << 20


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
    """Value of Lambda(f) with the rotation that achieved it. evaluations counts
    the boundary evaluations made; a reused first sweep (see lambda_functional) counts 0."""

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


def localmax(f, lo: float, hi: float, x: float, fx: float, width: float, steps: int):
    """Brent's localmin (Brent 1973, ch. 5) on -f over [lo, hi], started
    at x with its known value fx, so the result (x, f(x)) is never below fx.
    Stops once the bracket is at most `width` wide, or after `steps` calls of
    f. The tolerance is absolute: the textbook's sqrt(eps) |x| term would stop
    wider than the brackets of zeros near the circle."""
    tol = 0.25 * width  # the stop test below is hi - lo <= 4 tol
    w, fw, v, fv = x, fx, x, fx
    d = e = 0.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if abs(x - mid) <= 2.0 * tol - 0.5 * (hi - lo):
            break
        parabolic = False
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
            parabolic = abs(p) < abs(0.5 * q * r) and q * (lo - x) < p < q * (hi - x)
        if parabolic:
            d = p / q
            u = x + d
            if u - lo < 2.0 * tol or hi - u < 2.0 * tol:
                d = math.copysign(tol, mid - x)
        else:
            e = (lo if x >= mid else hi) - x
            d = 0.5 * (3.0 - math.sqrt(5.0)) * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = f(u)
        if fu >= fx:
            lo, hi = (x, hi) if u >= x else (lo, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            lo, hi = (u, hi) if u < x else (lo, u)
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


class _PanelAccumulator:
    __slots__ = ("value", "error", "failed_error", "failures", "evaluations")

    def __init__(self):
        self.value = 0.0 + 0.0j
        self.error = 0.0
        self.failed_error = 0.0
        self.failures = 0
        self.evaluations = 0


def _adaptive_theta(g, a: float, b: float, spec: QuadratureSpec, tol_abs: float, seed_edges=None, first=None):
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

    first, a list, keeps the first sweep (panels and estimates, independent of
    tol_abs): an empty one receives it, a filled one is resumed at 0 evaluations.
    """
    acc = _PanelAccumulator()
    total_width = b - a
    offsets = {c: (np.arange(c) + 0.5) / c for c in (4, 8, 16)}

    def estimates(los, his):
        w = his - los
        blocks = [los[:, None] + w[:, None] * offsets[c][None, :] for c in (4, 8, 16)]
        flat = np.concatenate([blk.ravel() for blk in blocks])
        vals = np.asarray(g(flat))
        acc.evaluations += flat.size
        p = los.size
        m4 = w * vals[: 4 * p].reshape(p, 4).mean(axis=1)
        m8 = w * vals[4 * p : 12 * p].reshape(p, 8).mean(axis=1)
        m16 = w * vals[12 * p :].reshape(p, 16).mean(axis=1)
        r2 = (4.0 * m8 - m4) / 3.0
        r3 = (4.0 * m16 - m8) / 3.0
        r23 = (16.0 * r3 - r2) / 15.0
        return r23, np.abs(r23 - r3) + 5e-17 * np.abs(r23)

    if first:
        los, his, r23, err = first[0]
    else:
        edges = np.linspace(a, b, spec.base_panels + 1)
        if seed_edges is not None and len(seed_edges):
            extra = np.asarray(seed_edges, dtype=float)
            extra = extra[(extra > a) & (extra < b)]
            edges = np.unique(np.concatenate([edges, extra]))
        los = edges[:-1].copy()
        his = edges[1:].copy()
        r23, err = estimates(los, his)
        if first is not None:
            first.append((los, his, r23, err))
    depths = np.zeros(los.size, dtype=int)

    while True:
        share = 0.5 * tol_abs * ((his - los) / total_width)

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
        if not los.size:
            break
        r23, err = estimates(los, his)

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


def _pair_evaluator(f: BlaschkeProduct):
    """Return pair(phi, theta) -> (f at e^{i(phi+theta)}, f at e^{i(phi-theta)}).

    Both halves come from one call of boundary_values in its pair form.
    theta is passed as the offset so factors near the rotation angle keep full
    relative accuracy at increments far below ulp(phi).
    """
    if not isinstance(f, BlaschkeProduct):
        raise InvalidConfiguration(f"Lambda needs a BlaschkeProduct symbol, got {type(f).__name__}")

    def pair(phi, theta):
        both = boundary_values(f, phi, offset=theta)
        return both[: theta.size], both[theta.size :]

    return pair


def _feature_scales(f: BlaschkeProduct):
    """(angle, width) of each boundary feature: a zero at a = (1-d) e^{i gamma}
    concentrates the symbol's phase swing in an angular window of width ~d."""
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


def brentq(f, a: float, b: float, xtol: float, rtol: float) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign: secant or
    inverse quadratic steps where they are short enough, bisection otherwise,
    until half the bracket is below (xtol + rtol |x|) / 2. Raises
    NumericalBreakdown after 100 iterations.

    No pipeline code calls it: the folds are solved by `_fold`. It stays only
    because the benchmark's tracer (perfbench/tracing.py) patches
    `circle_quad.brentq` by name; once the tracer counts folds through the
    `_kink_solver` callable, it and its tests can go."""
    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise InvalidConfiguration(f"f({a!r}) and f({b!r}) must differ in sign")
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)  # interpolate
            else:
                dpre = (fpre - fcur) / (xpre - xcur)  # extrapolate
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise NumericalBreakdown(f"Brent's method did not converge in 100 iterations on [{a!r}, {b!r}]")


def _kink_solver(f: BlaschkeProduct):
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

    Returns None when there is nothing to solve (degree < 2); otherwise a
    callable phi -> array of fold angles in (0, pi), found in increasing
    order by `_fold` from the swept phase S and its derivative
    S' = sum_k P_k(phi + theta - gamma_k) + P_k(phi - theta - gamma_k), where
    P(u) = (1 - rho^2) / ((1 - rho)^2 + 4 rho sin^2(u/2)) is the Poisson
    kernel in a form with no cancellation near the circle. Every (theta, S)
    evaluated at a rotation narrows the brackets of the folds after it.

    The swept phase is scalar Python math over a list of factors: with at
    most ~20 factors and a few evaluations per root, numpy's per-call
    overhead would cost more than the arithmetic itself.
    """
    if f.degree < 2:
        return None
    zeros = np.asarray(f.zeros, dtype=complex)
    rho = np.abs(zeros)
    gam = np.where(rho > 0, np.angle(np.where(rho > 0, zeros, 1.0)), 0.0)
    kappa = (1.0 + rho) / (1.0 - rho)
    # the Poisson kernel's numerator 1 - rho^2, and (1 - rho)^2 and 4 rho
    d = 1.0 - rho
    poisson = ((d * (1.0 + rho)).tolist(), (d * d).tolist(), (4.0 * rho).tolist())
    factors = list(zip(gam.tolist(), kappa.tolist(), rho.tolist(), *poisson))
    targets = [TWO_PI * k for k in range(1, f.degree)]

    def solver(phi):
        phi = float(phi)  # a numpy scalar would slow every step of the kernel
        seen = []

        def swept(theta):
            total = slope = 0.0
            for gamma, k, r, q, d2, r4 in factors:
                up, um = phi + theta - gamma, phi - theta - gamma
                total += _psi(up, k, r) - _psi(um, k, r)
                sp, sm = math.sin(0.5 * up), math.sin(0.5 * um)
                slope += q / (d2 + r4 * sp * sp) + q / (d2 + r4 * sm * sm)
            if math.isnan(total):
                raise NumericalBreakdown(f"swept phase is NaN at theta = {theta!r}, phi = {phi!r}")
            seen.append((theta, total))
            return total, slope

        folds = [0.0]
        for c in targets:
            folds.append(_fold(swept, seen, c, folds[-1]))
        return np.array(folds[1:])

    return solver


def _split(lo: float, hi: float) -> float:
    """Bisection point of (lo, hi): geometric while hi > 4 lo, since folds
    sit anywhere from 1e-12 to pi; hi / 64 while lo is still 0."""
    if lo == 0.0:
        return hi / 64.0
    return math.sqrt(lo * hi) if hi > 4.0 * lo else 0.5 * (lo + hi)


def _fold(swept, seen, c: float, lo: float) -> float:
    """The theta in (lo, pi) where the increasing swept phase crosses c.

    swept(theta) -> (S, S') records every evaluation in seen, whose points
    first narrow the bracket. Newton steps from the bracket's bisection
    point; every evaluated point becomes an end of the bracket. A step that
    leaves the open bracket, or is longer than half the step before it, is
    replaced by bisection, the safeguard of Brent's method: across the
    inflection of a phase jump, Newton alone can cycle between the two
    flanks while the bracket shrinks by a few percent a step. Stops when the
    bracket is at most 1e-15 + 8.9e-16 theta wide, or the step below half of
    that, returning the last Newton estimate if it lies in the bracket and
    the last point evaluated otherwise. Raises NumericalBreakdown after 100
    iterations.
    """
    hi = math.pi
    for t, s in seen:
        if lo < t < hi:
            if s < c:
                lo = t
            elif s > c:
                hi = t
            else:
                return t
    x, last = _split(lo, hi), hi - lo
    for _ in range(100):
        s, slope = swept(x)
        if s == c:
            return x
        if s < c:
            lo = x
        else:
            hi = x
        step = (c - s) / slope
        new = x + step
        tol = 1e-15 + 8.9e-16 * x
        if hi - lo <= tol or abs(step) < 0.5 * tol:
            return new if lo <= new <= hi else x
        if not (lo < new < hi and abs(step) <= 0.5 * last):
            new = _split(lo, hi)
        x, last = new, abs(new - x)
    raise NumericalBreakdown(f"fold solver did not converge in 100 iterations on [{lo!r}, {hi!r}]")


def _psi(u: float, kappa: float, rho: float) -> float:
    """Continuous boundary phase of one Moebius factor at e^{i(u + gamma)}:
    psi(u + 2 pi) = psi(u) + 2 pi with no jumps. round() is half to even."""
    m = round(u / TWO_PI)
    ur = u - TWO_PI * m
    half = 0.5 * ur
    return (
        TWO_PI * m
        + half
        + math.atan(kappa * math.tan(half))
        + math.atan(rho * math.sin(ur) / (1.0 - rho * math.cos(ur)))
    )


def _lambda_integral(pair, phi: float, spec: QuadratureSpec, tol: float, features=(), kink_fn=None, first=None):
    """The inner Lambda integral at a fixed rotation angle phi.

    Uses the evenness of the integrand in theta: the mean over the circle is
    (1/pi) * integral over (0, pi). A filled `first` needs no seed edges.
    """

    def g(theta):
        fp, fm = pair(phi, theta)
        return np.abs(fp - fm) / (2.0 * np.sin(0.5 * theta))

    seeds = None if first else _seed_edges_for_rotation(features, phi)
    if kink_fn is not None and not first:
        seeds = np.concatenate([seeds, kink_fn(phi)]) if len(seeds) else kink_fn(phi)
    val, err, evals = _adaptive_theta(g, 0.0, math.pi, spec, tol * math.pi, seed_edges=seeds, first=first)
    return float(val.real) / math.pi, err / math.pi, evals


def lambda_at_rotation(f, eta, spec: QuadratureSpec = DEFAULT_LAMBDA_SPEC) -> float:
    """The Lambda integrand's inner integral at one fixed rotation eta."""
    phi = float(np.angle(as_complex(eta)))
    pair = _pair_evaluator(f)
    val, _, _ = _lambda_integral(pair, phi, spec, spec.tolerance, _feature_scales(f), _kink_solver(f))
    return val


def _grid_scan(f: BlaschkeProduct, rotation_grid: int):
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
    F = boundary_values(f, theta)
    kern = 1.0 / (2.0 * np.abs(np.sin(0.5 * theta[:half])))
    # row r: plus[r, j] = F[(j + r s) % M], minus[r, j] = F[(M - 1 - j + r s) % M]
    plus = sliding_window_view(np.concatenate([F, F]), half)[0:M:s]
    minus = sliding_window_view(np.concatenate([F[::-1], F[::-1]]), half)[M:0:-s]
    # row blocks bound the complex difference and its modulus (24 bytes a term)
    rows = max(1, _GRID_BLOCK_BYTES // (24 * half))
    # einsum, not a BLAS gemv, which would start a second thread even for one row
    blocks = (np.abs(plus[i : i + rows] - minus[i : i + rows]) for i in range(0, R, rows))
    vals = np.concatenate([np.einsum("ij,j->i", blk, kern) for blk in blocks])
    vals *= 2.0 / M
    return (np.arange(R) * (TWO_PI / R)), vals, M


def _candidate_rotations(f: BlaschkeProduct, rotation_grid: int):
    """Grid winners plus aligned rotations for zeros the grid cannot resolve."""
    phis, vals, grid_evals = _grid_scan(f, rotation_grid)
    order = np.argsort(vals)[::-1]
    cands = [(float(phis[r]), TWO_PI / rotation_grid) for r in order[:3]]
    cands.append((0.0, TWO_PI / rotation_grid))
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


@dataclass
class _Rotation:
    """One rotation's first sweep (panels on its seed edges) and loose value."""

    first: list = field(default_factory=list)
    loose: float | None = None


def lambda_functional(f, spec: QuadratureSpec = DEFAULT_LAMBDA_SPEC, rotation_grid: int = 256) -> LambdaResult:
    """Supremum of the Lambda integral over rotations: a lower estimate of the
    supremum (the rotation search is not certified).

    Search: shared-grid scan over `rotation_grid` rotations, adaptive
    re-evaluation of the leading candidates, Brent's localmin on the
    loose-tolerance integral around the best, seeded with its value, then a
    final integral at the requested tolerance.

    Each exact rotation angle gets one `_Rotation` record for the call, so its
    seed ladders, folds and first sweep are computed once, whatever the tolerance.
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

    rotations = {}

    def integral(phi, tol):
        return _lambda_integral(pair, phi, spec, tol, features, kink_fn, rotations.setdefault(phi, _Rotation()).first)

    def protected(phi, tol):
        nonlocal evals
        try:
            v, e, k = integral(phi, tol)
        except ToleranceNotMet as exc:
            v = float(np.real(exc.value)) / math.pi
            e = exc.error_estimate / math.pi
            k = exc.evaluations
        evals += k
        if tol == loose:
            rotations[phi].loose = v
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

    lo, hi, width = best_phi - best_h, best_phi + best_h, max(1e-13, 1e-5 * best_h)
    phi_star, _ = localmax(lambda x: protected(x, loose)[0], lo, hi, best_phi, best_val, width, 60)

    value, err, k = integral(phi_star, spec.tolerance)
    evals += k
    # A candidate may beat the refined point if the search surface is bumpy;
    # keep whichever certified value is larger.
    for v0, phi, _h in top:
        if v0 > value + err:
            v, e, k = integral(phi, spec.tolerance)
            evals += k
            if v > value:
                value, err, phi_star = v, e, phi
    # Search uncertainty at the returned rotation: disagreement between the
    # loose screening value there and the final tight integral. The search
    # bracket width would overstate it badly when the surface has cliffs at
    # the scale of the smallest zero deficit.
    agreement = abs(rotations[phi_star].loose - value)
    return LambdaResult(
        value=float(value),
        eta=CirclePoint(np.exp(1j * phi_star)),
        error_estimate=float(err + agreement),
        evaluations=int(evals),
    )
