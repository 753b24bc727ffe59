"""Quadrature on the unit circle and the oscillation functional Lambda.

The functional computed here is

    Lambda(f) = sup_eta integral_T |f(zeta*eta) - f(conj(zeta)*eta)| / |1 - zeta| dm(zeta)

with m the normalized Lebesgue measure. The integrand is even in the angle of
zeta and bounded at zeta = 1 for the symbols of interest, but it develops
peaks of width 1 - |a| when a zero a approaches the circle, so the integrator
is an adaptive bisection scheme: each panel is estimated by the 15-point
Gauss-Kronrod rule (QUADPACK's qk15), whose embedded 7-point Gauss rule gives
the error estimate at no extra evaluation, and a panel is accepted once that
discrepancy is below its proportional share of the tolerance budget. Every
node is interior to its panel, so theta = 0 is never sampled and the
removable singularity needs no special casing. Every integral resumes from
a first sweep that its caller makes (integrate_circle's uniform panels on
(-pi, pi], the Lambda integral's seeded ones on (0, pi)) and works in mean
units: its tolerance, value and error are those of the integral divided by
the sweep's span, so each caller's mean is _adaptive_theta's own result.
Each later sweep splits every pending panel, and the one failure is a sweep
at MAX_DEPTH, or with more than MAX_PENDING panels pending, that still
misses the tolerance: it raises ToleranceNotMet with the best mean. At a
fixed rotation the integrand is one call of boundary_values in its pair
form, the symbol at the rotation plus and minus every node angle. The
Lambda integral's first sweep is coarse: 8 uniform panels on (0, pi) plus
seed edges at every known feature, ratio-4 ladders around the angles of the
zeros, one ladder for the zeros that share a direction, and the folds. Each
panel reports an honest error, so the adaptive loop pays for resolution
where it is needed, not a fine starting grid everywhere. The first sweeps of
many rotations are made together (_first_sweeps): one row of edges a
rotation, each starting with the row that all rotations share (the base
grid and the ladders' rungs, built once a call), sorted row by row, and one
boundary_values call per block of rotations, with one rotation per node,
each block capped at _SWEEP_BLOCK_NODES nodes. A lone rotation skips the
blocks: its row is swept in one boundary_values call at its angle. Each
rotation's integral then resumes from its own first sweep, and every later
sweep is at that rotation alone; an integral whose first sweep already
meets its tolerance panel by panel returns at once, with the sums the
adaptive loop would give.

The supremum over rotations is searched by lambda_functional, whose
docstring gives its four stages and the reasons for each. Each zero's angle
and modulus come from the symbol's BlaschkeProduct.polar, taken once per
product, for the rotation grid, every sweep, the seed ladders and the folds.

The integrand's interior folds, where the swept boundary phase crosses a
multiple of 2 pi, are found by safeguarded Newton steps on that phase, whose
share from each factor is the argument of w(phi + theta) conj(w(phi - theta))
for disk_core's half-angle terms w, with no unwrapping, and whose derivative
is a sum of Poisson kernels: each fold's bracket starts at the fold before
it and is narrowed by every phase value already computed at the rotation.
The steps are safeguarded as in Brent's root finder (R. P. Brent,
Algorithms for Minimization without Derivatives, 1973, ch. 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disk_core import BlaschkeProduct, CirclePoint, _half_angle_pair, boundary_values
from .errors import InvalidConfiguration, NumericalBreakdown, ToleranceNotMet

TWO_PI = 2.0 * math.pi
# The rotation grid: ROTATIONS rotations 2 pi / ROTATIONS apart, on a theta
# grid of four nodes a rotation, so a grid step is an index shift of four.
ROTATIONS = 256
_GRID_NODES = 4 * ROTATIONS
_GRID_THETA = -math.pi + (np.arange(_GRID_NODES) + 0.5) * (TWO_PI / _GRID_NODES)
_GRID_KERNEL = 1.0 / (2.0 * np.abs(np.sin(0.5 * _GRID_THETA[: _GRID_NODES // 2])))
# The grid's half-angle pair, in the form disk_core's kernel takes, built
# once; read-only, since every scan shares it.
_GRID_HALF = _half_angle_pair(_GRID_THETA)
for _table in (_GRID_THETA, *_GRID_HALF):
    _table.flags.writeable = False
# QUADPACK's qk15 (Piessens et al., QUADPACK, 1983): the 15-point Kronrod
# rule on [-1, 1], exact to degree 22, and its embedded 7-point Gauss rule,
# exact to degree 13, on every other node. Abscissae from 1 down to 0.
_XGK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_WG = np.array([
    0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327,
])
# The rules moved to [0, 1], nodes in increasing order: one row of 15 nodes
# per panel, every node strictly inside it. The Gauss weights are 0 off its
# 7 nodes.
_NODE_OFFSETS = np.concatenate([0.5 - 0.5 * _XGK[:-1], 0.5 + 0.5 * _XGK[::-1]])
_KRONROD_WEIGHTS = 0.5 * np.concatenate([_WGK[:-1], _WGK[::-1]])
_GAUSS_WEIGHTS = 0.5 * np.concatenate([_WG[:-1], _WG[::-1]])
# The first sweeps' uniform panels, so that theta = 0 and theta = pi are
# panel boundaries, never nodes: integrate_circle's 64 on (-pi, pi], which
# has no seed edges, and the Lambda integral's base grid of 8 on (0, pi),
# whose seed ladders already place an edge at every known feature.
CIRCLE_PANELS = 64
LAMBDA_EDGES = np.linspace(0.0, math.pi, 9)
# Nodes per boundary_values call of the batched first sweeps (_first_sweeps):
# a block of rotations stops before it would pass this, and a rotation with
# more nodes is a block of its own. Unbounded blocks held the first sweeps of
# every candidate at once, 285 MB on a product of 20 zeros 1e-6 from the circle.
_SWEEP_BLOCK_NODES = 1 << 14
# The adaptive integral's limits (_adaptive_theta): bisection depth, where
# 42 resolves peaks of width ~1e-11, and pending panels in one sweep, past
# which the error estimates are noise-bound and finer panels only use memory.
MAX_DEPTH = 42
MAX_PENDING = 1 << 20
# Zeros whose angles differ by at most this fraction of the farther zero's
# width share one seed ladder (_seed_ladders). The angles of a ray's zeros
# differ by rounding, up to 4.4e-16, so they share one while every zero but
# the nearest is at least 4.4e-12 from the circle. Two random zeros 1/2 from
# it share one about once in 6e4 pairs.
SHARED_DIRECTION = 1e-4
# The aligned candidates of a direction of width d (_candidate_rotations):
# gamma + t d for t in _STENCIL, and in _NESTED_STENCIL where another
# direction's stencil comes within reach.
_STENCIL = (0.0, -0.5, 0.5, -1.0, 1.0)
_NESTED_STENCIL = _STENCIL + (-2.0, 2.0, -4.0, 4.0)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance of the adaptive circle integrator: the absolute tolerance for
    the normalized (mean-value) integral."""

    tolerance: float = 1e-9

    def __post_init__(self):
        if not (1e-12 <= self.tolerance < math.inf):
            raise InvalidConfiguration(f"tolerance must be finite and at least 1e-12, got {self.tolerance!r}")


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


def _panel_estimates(g, los, his):
    """Gauss-Kronrod estimate and error of g's integral over each panel [lo, hi].

    Each panel's 15 nodes (_NODE_OFFSETS) form one row, and g gets the rows
    panel-major in one flat array and returns an array of their values. The
    estimate is the 15-point Kronrod value K, the error |K - G| against the
    embedded 7-point Gauss value G plus a rounding floor. The row sums are
    einsums, not BLAS gemvs, which would start a second thread.
    """
    w = his - los
    nodes = los[:, None] + w[:, None] * _NODE_OFFSETS
    vals = g(nodes.ravel()).reshape(nodes.shape)
    kronrod = w * np.einsum("ij,j->i", vals, _KRONROD_WEIGHTS)
    gauss = w * np.einsum("ij,j->i", vals, _GAUSS_WEIGHTS)
    return kronrod, np.abs(kronrod - gauss) + 5e-17 * np.abs(kronrod)


def _adaptive_theta(g, first, tol: float):
    """Mean of g over the span of its first sweep, integrated adaptively
    from that sweep; g maps a theta array to values.

    first is (los, his, est, err) as _panel_estimates gives them on panels
    tiling the span [los[0], his[-1]], made and counted by the caller and
    left as it was, so any tolerance can resume from it. Returns (value,
    error_estimate, evaluations made after the first sweep). tol, the value
    and the error, here and in a ToleranceNotMet, are in mean units: the
    integral over the span divided by its length. The loop sums the raw panel
    estimates against the raw budget tol * span and divides once at the
    end, so a span of exactly 2 pi or pi gives the bits of the raw integral
    divided by TWO_PI or math.pi. Panels are accepted individually once
    below their proportional share of the budget, or all at once when the
    global error estimate (accepted plus pending) is already below it; the
    share rule alone would keep splitting forever around integrable kinks,
    whose absolute contribution shrinks quadratically while their share
    shrinks only linearly. A first sweep with every panel below its share
    returns at once, with the sums of the loop's first pass.

    Each later sweep splits every pending panel, so its panels share one
    depth, and is one call of g on their nodes, 15 a panel, panel-major
    (see _panel_estimates). The integral and the accepted error are running
    sums, each sweep adding its accepted panels before the pending ones. A
    sweep at depth MAX_DEPTH, or with more than MAX_PENDING panels pending,
    that misses both tests raises ToleranceNotMet with the mean and its
    error, pending panels included, and the evaluations.
    """
    los, his, est, err = first
    span = float(his[-1] - los[0])
    budget = tol * span
    if (err <= 0.5 * budget * ((his - los) / span)).all():
        return (0j + est.sum()) / span, float(err.sum()) / span, 0
    value, error, evaluations, depth = 0j, 0.0, 0, 0
    while True:
        done = err <= 0.5 * budget * ((his - los) / span)
        value += est[done].sum()
        error += float(err[done].sum())

        rest = ~done
        pending = float(err[rest].sum())
        if error + pending <= budget:
            return (value + est[rest].sum()) / span, (error + pending) / span, evaluations
        count = int(rest.sum())
        if depth >= MAX_DEPTH or count > MAX_PENDING:
            raise ToleranceNotMet(
                f"{count} panel(s) above their error share at depth {depth}"
                f" (limits: depth {MAX_DEPTH}, {MAX_PENDING} pending panels)",
                value=(value + est[rest].sum()) / span,
                error_estimate=(error + pending) / span,
                evaluations=evaluations,
            )

        mid = 0.5 * (los[rest] + his[rest])
        los = np.concatenate([los[rest], mid])
        his = np.concatenate([mid, his[rest]])
        depth += 1
        evaluations += _NODE_OFFSETS.size * los.size
        est, err = _panel_estimates(g, los, his)


def integrate_circle(g, spec: QuadratureSpec = DEFAULT_SPEC):
    """Mean of g over the unit circle: (1/2pi) * integral of g(theta) over
    (-pi, pi], g a function of the angle theta.

    g receives an array of angles and must return an array of the same
    shape. spec.tolerance is the absolute tolerance on the mean. Returns
    (value, error_estimate), both means. The first sweep is CIRCLE_PANELS
    uniform panels, made here, spanning exactly 2 pi; _adaptive_theta
    resumes from it. A ToleranceNotMet carries the mean, its error, and
    every evaluation, the first sweep's 15 a panel among them.
    """
    edges = np.linspace(-math.pi, math.pi, CIRCLE_PANELS + 1)
    los, his = edges[:-1], edges[1:]
    try:
        val, err, _ = _adaptive_theta(g, (los, his, *_panel_estimates(g, los, his)), spec.tolerance)
    except ToleranceNotMet as exc:
        exc.evaluations += _NODE_OFFSETS.size * CIRCLE_PANELS
        raise
    return val, err


def _seed_ladders(f: BlaschkeProduct):
    """The rotation-free part of the seed edges, built once per Lambda call:
    (gammas, counts, rungs, row), row the edges that every rotation's first
    sweep shares, LAMBDA_EDGES followed by the rungs. lambda_functional
    calls it before any other use of f, so it is where a symbol that is not
    a BlaschkeProduct is rejected. The same grouping places the aligned
    candidates (_candidate_rotations).

    A zero at a = (1-d) e^{i gamma} concentrates the symbol's phase swing in
    an angular window of width ~d. Its ladder d/2, 2d, 8d, ..., d 4^k / 2, is
    geometric from d/2 out to the integration span pi: a peak decays like the
    inverse square of the distance, so every annulus [x, 4x] carries
    comparable mass and starts at its own panel edge. Ratio 4 is enough:
    on [x, 4x] an inverse-square peak is smooth at the panel's own scale, so
    the 15-point Gauss-Kronrod rule reports an honest error there, and the
    adaptive loop splits the panel when that error asks for it. (Ratio 2
    seeded twice the panels, for values within the error estimates.)

    Zeros that share a direction share one ladder, built from the smallest
    width among them: its rungs reach from below every other zero's d/2 out
    to pi, so each of those zeros' peaks meets rungs at its own scale, as
    its own ladder would give it. The zeros of a ray symbol, on one ray at
    deficits q, q^2, ..., q^n, so get one ladder, not n ladders around the
    same centre. A zero shares the ladder of a zero nearer the circle when
    their angles differ by at most SHARED_DIRECTION times its own width, a
    shift far inside its peak. rungs joins the ladders, counts[k] of them
    for the ladder at angle gammas[k], whose first rung is half its width.
    The ladders come in the order of each direction's first zero in
    f.zeros, so zeros that share no direction keep their own order.
    """
    if not isinstance(f, BlaschkeProduct):
        raise InvalidConfiguration(f"Lambda needs a BlaschkeProduct symbol, got {type(f).__name__}")
    directions = []  # [index of its first zero in f.zeros, gamma, width]
    # nearest the circle first, so a direction takes its smallest width
    for i, (gamma, rho) in sorted(enumerate(f.polar), key=lambda item: item[1][1], reverse=True):
        width = 1.0 - rho
        for direction in directions:
            if abs(math.remainder(gamma - direction[1], TWO_PI)) <= SHARED_DIRECTION * width:
                direction[0] = min(direction[0], i)
                break
        else:
            directions.append([i, gamma, width])
    gammas, counts, rungs = [], [], []
    for _, gamma, width in sorted(directions):
        ks = int(math.ceil(math.log(2.0 * math.pi / width, 4.0))) + 1
        gammas.append(gamma)
        counts.append(ks)
        rungs.append(0.5 * width * 4.0 ** np.arange(ks))
    rungs = np.concatenate(rungs) if rungs else np.empty(0)
    return gammas, counts, rungs, np.concatenate([LAMBDA_EDGES, rungs])


def _seed_edges_for_rotation(ladders, phis):
    """The first sweep's panel boundaries but the folds, one row for each
    rotation in phis: the base grid LAMBDA_EDGES and edges bracketing every
    feature of the theta integrand, from the ladders of _seed_ladders.

    Gauss-Kronrod error estimates are blind to structure narrower than the
    node spacing, so a peak of width 1e-9 inside a width-0.4 panel would be
    reported as converged with essentially zero error; seeding guarantees
    nodes inside every known peak from the first sweep. The integrand
    compares angles phi + theta and phi - theta, so a feature at boundary
    angle gamma shows up at theta = |gamma - phi| (mod 2 pi, folded to
    [0, pi]) and the pairing also creates structure at theta -> 0. The
    rungs themselves are the ladders around theta = 0 (whose mirror images
    and centre lie outside (0, pi)), the same at every rotation, like the
    base grid: each row starts with the ladders' shared row. The rungs
    centred at |gamma - phi| are built per rotation. Order is free, and
    edges may fall outside [0, pi]: _first_sweeps sorts each row and drops
    those. phis is not empty.
    """
    gammas, counts, rungs, row = ladders
    centers = np.array([[abs(math.remainder(gamma - phi, TWO_PI)) for gamma in gammas] for phi in phis])
    around = centers.repeat(counts, axis=1)
    return np.concatenate([row[None].repeat(len(phis), axis=0), centers, around + rungs, around - rungs], axis=1)


# perfbench/tracing.py patches this name; nothing calls it (ROADMAP item 1a)
brentq = None


def _kink_solver(f: BlaschkeProduct):
    """Exact interior fold locations of the Lambda integrand, per rotation.

    The numerator |f(e^{i(phi+theta)}) - f(e^{i(phi-theta)})| vanishes where
    the phase swept between the two arguments is a multiple of 2 pi. The
    swept phase is a sum of per-factor continuous boundary phases and is
    strictly increasing from 0 at theta = 0 to 2 pi n at theta = pi, so there
    are exactly n - 1 interior folds, each a bracketed root. They must become
    panel edges: a fold strictly inside a panel but hugging one edge at
    distance delta defeats the Gauss-Kronrod estimate, because its quadrature
    error is slope * delta^2 at every refinement level, while a fold exactly
    at an edge leaves both neighbors piecewise smooth and costs nothing.

    Returns None when there is nothing to solve (degree < 2); otherwise a
    callable phi -> array of fold angles in (0, pi), found in increasing
    order by `_fold` from the swept phase S and its derivative S'. With
    disk_core's half-angle term w = d cos(beta/2) + i e sin(beta/2),
    d = 1 - rho, e = 1 + rho, a factor's share of S is 2 arg(w_+ conj(w_-)):
    s_k = 2 atan2(d e sin theta, d^2 c_+ c_- + e^2 s_+ s_-), c_+- and s_+- the
    cos and sin of beta_+-/2, beta_+- = phi - gamma_k +- theta. It lies in
    (0, 2 pi) for theta in (0, pi), so nothing is unwrapped, and it is
    accurate to rounding next to the circle. phi - gamma_k is reduced once
    per rotation; c_+- and s_+- come by angle addition from one cos and sin
    of theta/2, which keeps the 1e-16 offsets between a ray's zero angles.
    S' sums the Poisson kernels d e / (d^2 + 4 rho s_+-^2). Every (theta, S)
    evaluated at a rotation narrows the brackets of the folds after it.

    The swept phase is scalar Python math over a list of factors: with at
    most ~20 factors and a few evaluations per root, numpy's per-call
    overhead would cost more than the arithmetic itself.
    """
    if f.degree < 2:
        return None
    factors = []
    for gamma, rho in f.polar:  # the integrand's, so the folds are its own
        d, e = 1.0 - rho, 1.0 + rho
        factors.append((gamma, d * e, d * d, e * e, 4.0 * rho))
    targets = [TWO_PI * k for k in range(1, f.degree)]

    def solver(phi):
        phi = float(phi)  # a numpy scalar would slow every step of the kernel
        rows = []
        for gamma, de, d2, e2, r4 in factors:
            h = 0.5 * math.remainder(phi - gamma, TWO_PI)
            rows.append((math.cos(h), math.sin(h), de, d2, e2, r4))
        seen = []

        def swept(theta):
            ct, st = math.cos(0.5 * theta), math.sin(0.5 * theta)
            sin_theta = 2.0 * st * ct
            total = slope = 0.0
            for ch, sh, de, d2, e2, r4 in rows:
                cc, ss, sc, cs = ch * ct, sh * st, sh * ct, ch * st
                cp, cm, sp, sm = cc - ss, cc + ss, sc + cs, sc - cs
                total += 2.0 * math.atan2(de * sin_theta, d2 * cp * cm + e2 * sp * sm)
                slope += de / (d2 + r4 * sp * sp) + de / (d2 + r4 * sm * sm)
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


def _integrand(f: BlaschkeProduct, phi, theta):
    """The Lambda integrand |f(e^{i(phi + theta)}) - f(e^{i(phi - theta)})|
    / |1 - e^{i theta}| at the node angles theta, at the rotation phi: a
    scalar, or one rotation per node.

    One call of boundary_values in its pair form: theta is passed as the
    offset, so factors near the rotation angle keep full relative accuracy
    at increments far below ulp(phi), and the kernel gets the half-angle
    pair of theta, whose sine the integrand's denominator reads too.
    """
    half = _half_angle_pair(theta)
    both = boundary_values(f, phi, offset=theta, half=half)
    return np.abs(both[: theta.size] - both[theta.size :]) / (2.0 * half[1].real)


def _first_sweeps(f: BlaschkeProduct, phis, ladders, kink_fn):
    """The first sweeps of the Lambda integral at the rotations phis, and the
    evaluations they made: a list of (los, his, est, err), one a rotation in
    order, for _adaptive_theta to resume from.

    A rotation's panels have the edges of _seed_edges_for_rotation (the
    base grid and the seed edges from the ladders of _seed_ladders) and its
    folds (kink_fn, from _kink_solver, None below degree 2), one row a
    rotation, sorted row by row; an edge that repeats the one before it, or
    lies outside [0, pi], the base grid's span, makes no panel. A lone
    rotation, as localmin passes it, is one call of _panel_estimates at its
    angle, with no block bookkeeping. More rotations are swept together,
    consecutive ones in blocks of at most _SWEEP_BLOCK_NODES nodes: each
    block is one call of _panel_estimates, so one of boundary_values with
    one rotation per node, or at its rotation when the block has one. Every
    estimate has the bits of its rotation's sweep alone, and counts 15
    evaluations a panel, once.
    """
    edges = _seed_edges_for_rotation(ladders, phis)
    if kink_fn is not None:
        edges = np.concatenate([edges, [kink_fn(phi) for phi in phis]], axis=1)
    edges.sort(axis=1)
    lo, hi = edges[:, :-1], edges[:, 1:]
    panel = (hi > lo) & (lo >= 0.0) & (hi <= math.pi)
    los, his = lo[panel], hi[panel]
    nodes = _NODE_OFFSETS.size
    if len(phis) == 1:
        phi = phis[0]
        return [(los, his, *_panel_estimates(lambda theta: _integrand(f, phi, theta), los, his))], nodes * los.size

    counts = panel.sum(axis=1)
    starts = [0] + np.cumsum(counts).tolist()
    blocks, start = [], 0
    for r in range(1, len(phis)):
        if nodes * (starts[r + 1] - starts[start]) > _SWEEP_BLOCK_NODES:
            blocks.append((start, r))
            start = r
    blocks.append((start, len(phis)))

    sweeps = []
    for i, j in blocks:
        a, b = starts[i], starts[j]
        rotation = phis[i] if j == i + 1 else np.repeat(np.asarray(phis[i:j], dtype=float), nodes * counts[i:j])
        est, err = _panel_estimates(lambda theta: _integrand(f, rotation, theta), los[a:b], his[a:b])
        for r in range(i, j):
            k, m = starts[r], starts[r + 1]
            sweeps.append((los[k:m], his[k:m], est[k - a : m - a], err[k - a : m - a]))
    return sweeps, nodes * starts[-1]


def _lambda_integral(f: BlaschkeProduct, phi: float, tol: float, first):
    """The inner Lambda integral at a fixed rotation angle phi, resumed from
    its first sweep, one entry of _first_sweeps, whose panels span exactly
    (0, pi); the evaluations returned are those made after it.

    The integrand is even in theta, so its mean over the circle is its mean
    over (0, pi), which _adaptive_theta returns: (value, error_estimate,
    evaluations), value the real part of that mean, a float. A
    ToleranceNotMet carries the real mean too, and the evaluations made
    after the first sweep.
    """
    try:
        val, err, evals = _adaptive_theta(lambda theta: _integrand(f, phi, theta), first, tol)
    except ToleranceNotMet as exc:
        exc.value = exc.value.real
        raise
    return val.real, err, evals


def _grid_scan(f: BlaschkeProduct):
    """Estimate the Lambda integral on every grid rotation from one boundary sweep.

    Returns the ROTATIONS grid angles, their values and M, the number of
    boundary evaluations. The theta grid has M = 4 R nodes for the
    R = ROTATIONS rotations, so rotating by a grid step is an index shift by
    s = 4 and reflection is an index reversal; f is evaluated once. The grid
    only ranks rotations for the candidates, whose values come from adaptive
    integrals; a grid of four times the nodes ranked them alike on every
    product tested, at four times the subtract, modulus and sum work.
    Terms j and M-1-j of the rotation sum are equal (the kernel is even and the
    pair is swapped), so only j < M/2 is summed and the result doubled. M is
    even, so the grid never sits on theta = 0, where the kernel is infinite.

    Rotations r and r + R/2 sum the same unordered pairs {F[a], F[c - a]} on
    the anti-diagonal c = M - 1 + 2rs (mod M), with the columns reversed:
    column M/2 - 1 - j of row r + R/2 is |F_b - F_a| where column j of row r
    is |F_a - F_b|, the same bits. So the moduli are taken for rows r < R/2
    only, and row r + R/2 is summed from a contiguous reversed copy of row
    r's. Summing row r against a reversed kernel, or through a
    negative-stride view, would add the terms in another order and move the
    last bits.

    The plus and minus operands, one row per rotation r < R/2, are strided
    views of one buffer of 3M/2 values, F followed by its first half, which
    no index j + r s or M - 1 - j + r s reaches past: plus starts at 0 and
    steps +1 along a row, minus starts at M - 1 and steps -1, and both step
    +s from row to row. The grid's half-angle pair is _GRID_HALF, taken at
    import.
    """
    M, s, mirror = _GRID_NODES, _GRID_NODES // ROTATIONS, ROTATIONS // 2
    half = M // 2
    F = boundary_values(f, _GRID_THETA, half=_GRID_HALF)
    # row r < R/2: plus[r, j] = F[(j + r s) % M], minus[r, j] = F[(M - 1 - j + r s) % M]
    wrapped = np.concatenate([F, F[:half]])
    size = wrapped.itemsize
    plus = np.ndarray((mirror, half), complex, wrapped, 0, (s * size, size))
    minus = np.ndarray((mirror, half), complex, wrapped, (M - 1) * size, (s * size, -size))
    mod = np.abs(plus - minus)
    # einsums, not BLAS gemvs, which would start a second thread
    vals = np.concatenate([
        np.einsum("ij,j->i", mod, _GRID_KERNEL),
        np.einsum("ij,j->i", np.ascontiguousarray(mod[:, ::-1]), _GRID_KERNEL),
    ])
    vals *= 2.0 / M
    return np.arange(ROTATIONS) * (TWO_PI / ROTATIONS), vals, M


def _candidate_rotations(f: BlaschkeProduct, ladders):
    """The candidates of lambda_functional's grid stage, whose docstring
    gives the reasons, and the grid scan's evaluations: a list of (phi, h),
    h the half-width of phi's localmin window. First the two grid winners,
    each with h one grid step; then one stencil per ladder of _seed_ladders
    whose width d is below four grid steps, at gamma + t d with h = 2 d, for
    t in _STENCIL, or in _NESTED_STENCIL where another such stencil's reach
    meets this one's. Rotations within 1e-15 of one already listed are
    dropped.
    """
    phis, vals, grid_evals = _grid_scan(f)
    step = TWO_PI / ROTATIONS
    cands = [(float(phis[r]), step) for r in np.argsort(vals)[::-1][:2]]
    gammas, counts, rungs, _row = ladders
    firsts = np.cumsum([0] + counts[:-1])
    # each ladder's first rung is half its width
    aligned = [(gamma, 2.0 * float(rungs[k])) for gamma, k in zip(gammas, firsts)]
    aligned = [(gamma, d) for gamma, d in aligned if d < 4.0 * step]
    for i, (gamma, d) in enumerate(aligned):
        nested = any(
            abs(math.remainder(gamma - other, TWO_PI)) < 6.0 * (d + width)
            for j, (other, width) in enumerate(aligned)
            if j != i
        )
        for t in _NESTED_STENCIL if nested else _STENCIL:
            cands.append((gamma + t * d, 2.0 * d))
    seen = set()
    out = []
    for phi, h in cands:
        key = round(phi / 1e-15)
        if key not in seen:
            seen.add(key)
            out.append((phi, h))
    return out, grid_evals


def lambda_functional(f, spec: QuadratureSpec = DEFAULT_LAMBDA_SPEC) -> LambdaResult:
    """Supremum of the Lambda integral over rotations: a lower estimate of the
    supremum (the rotation search is not certified) with a quadrature error
    bar; no global optimality is claimed.

    Search, in four stages:
    - grid: _grid_scan values the ROTATIONS = 256 grid rotations from shared
      function values, so the grid costs one boundary sweep of 1,024 points,
      and a rotation and its half-turn share one row of moduli, so half the
      row work is done. _candidate_rotations takes the grid's two leaders,
      and one stencil of aligned rotations for each direction of zeros too
      close to the circle for the grid to see, within four grid steps, the
      directions that share a seed ladder: for width d, the rotations
      gamma + t d for t in {0, +-1/2, +-1}, with +-2 and +-4 added where
      another such direction, of width d', is within 6 (d + d') of it. A
      ray's zeros share one ladder, so its stencil is that of its zero
      nearest the circle, which brackets the peak at gamma;
    - screen: the first sweeps of all candidates are made together, in
      blocks (_first_sweeps), before any is integrated, and each candidate
      is integrated once from its own, at the loose tolerance;
    - localmin: Brent's localmin (localmax), whose parabolic steps need far
      fewer integrals than golden section on the smooth peak, refines the
      best candidate on the loose-tolerance integral, seeded with its
      value, on the window [best - h, best + h] narrowed to the nearest
      screened rotations on each side that score below the best. localmin
      assumes one peak per window, so the maximum it seeks lies between
      them;
    - final: one integral at the refined rotation, at the requested
      tolerance. localmin never returns below the best screen, so a
      candidate could beat it only where the loose and tight integrals
      disagree by more than its screen's gap to the best.

    A candidate therefore counts only by winning the screen or by narrowing
    the winner's window. A grid winner's window spans its two grid
    neighbours. A lone direction's peak sits at its angle, so its centre
    wins, and with h = 2 d that window spans the +-d/2 and +-d points, has
    the +-2d points on its edges and the +-4d points outside it. Those four
    are screened only where directions nest: where another stencil's reach,
    its +-4d points plus their half-width, 6 d in all, meets this one's, the
    candidates of each lie inside the windows of the other, and without
    them nested clusters read Lambda lower by up to 4.5 times the summed
    error estimates. The third grid winner and the fixed rotation 0 (grid
    rotation 0, unrelated to the symbol unless it already leads the grid)
    are not candidates: without them Lambda kept its bits on 4,785 of 4,786
    symbols tested, and on the last the third winner had only narrowed the
    window, so Lambda moved within localmin's stopping width.

    The seed ladders are built once for the call; they also place the
    aligned candidates. The search state is two dicts keyed by the exact
    rotation angle: each angle's first sweep, so its seed edges, folds and
    first sweep are computed once whatever the tolerance, and its value at
    the loose tolerance. A first sweep's evaluations are counted when it is
    made, once; integrals resume from it at 0 evaluations. A rotation new to
    localmin gets its first sweep from the same _first_sweeps, alone. A final
    integral that misses its tolerance raises ToleranceNotMet with its value
    and error estimate and the call's evaluations, all made so far.
    """
    ladders = _seed_ladders(f)
    kink_fn = _kink_solver(f)
    candidates, evals = _candidate_rotations(f, ladders)

    loose = max(1e-6, spec.tolerance * 1e2)
    firsts, loose_values = {}, {}

    def sweep(phis):
        nonlocal evals
        sweeps, k = _first_sweeps(f, phis, ladders, kink_fn)
        firsts.update(zip(phis, sweeps))
        evals += k

    def integral(phi, tol):
        if phi not in firsts:
            sweep([phi])
        return _lambda_integral(f, phi, tol, firsts[phi])

    def screened(phi):
        nonlocal evals
        try:
            v, _, k = integral(phi, loose)
        except ToleranceNotMet as exc:
            v, k = exc.value, exc.evaluations
        evals += k
        loose_values[phi] = v
        return v

    sweep([phi for phi, _h in candidates])
    scored = sorted(((screened(phi), phi, h) for phi, h in candidates), reverse=True)
    best_val, best_phi, best_h = scored[0]
    lo, hi, width = best_phi - best_h, best_phi + best_h, max(1e-13, 1e-5 * best_h)
    for v, phi, _h in scored:
        if v < best_val:
            if lo < phi < best_phi:
                lo = phi
            elif best_phi < phi < hi:
                hi = phi
    phi_star, _ = localmax(screened, lo, hi, best_phi, best_val, width, 60)

    try:
        value, err, k = integral(phi_star, spec.tolerance)
    except ToleranceNotMet as exc:
        exc.evaluations += evals
        raise
    evals += k
    # Search uncertainty at the returned rotation: disagreement between the
    # loose screening value there and the final tight integral. The search
    # bracket width would overstate it badly when the surface has cliffs at
    # the scale of the smallest zero deficit.
    agreement = abs(loose_values[phi_star] - value)
    return LambdaResult(
        value=float(value),
        eta=CirclePoint(np.exp(1j * phi_star)),
        error_estimate=float(err + agreement),
        evaluations=int(evals),
    )
