"""Toeplitz operator application for Blaschke symbols, by residues and by contour.

For an inner rational symbol B and h analytic on the closed disk, the operator

    (T_B h)(z) = (1/2pi) * integral conj(B(zeta)) h(zeta) zeta / (zeta - z) dm(zeta)

reduces by residue calculus to h(z)/B(z) + sum_k h(a_k) / (B'(a_k) (a_k - z))
over the (simple) zeros a_k of B, with B'(a_k) = prod_{j != k} b_j(a_k) / (1 - |a_k|^2)
taken from the other factors. Both routes are implemented independently;
their agreement is a standing cross-check, never collapsed into one path.
The contour route integrates the angle form of the first line with the
adaptive Gauss-Kronrod integrator of circle_quad.integrate_circle.

Residue evaluations run internally in extended precision (clongdouble) so the
formula stays accurate when zeros approach the circle and 1 - conj(a_j)*a_k
shrinks toward the rounding floor of double precision.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .circle_quad import (
    DEFAULT_LAMBDA_SPEC,
    DEFAULT_SPEC,
    QuadratureSpec,
    integrate_circle,
    lambda_functional,
)
from .disk_core import (
    SEPARATION,
    BlaschkeProduct,
    _derivative_at_zero,
    _half_angle_pair,
    as_complex,
    boundary_values,
    eval_blaschke,
)
from .errors import InvalidConfiguration, PointCollision, RepeatedZero

POLE_MARGIN = 1e-9
# sup_norm sweep: SUP_SAMPLES uniform angles, of whose local maxima the
# SUP_PEAKS highest are refined.
SUP_SAMPLES = 4096
SUP_PEAKS = 8
# sup_norm refinement: at most REFINE_STEPS batched parabolic steps after the
# sweep, a stencil shrink of REFINE_SHRINK per bracketed step, and a stencil
# counts as settled at a relative change of a few units of rounding.
REFINE_STEPS = 6
REFINE_SHRINK = 8.0
REFINE_RTOL = 8 * 2.0**-52
# The sweep's angles are the same on every call, so they and their
# half-angle pair, in the form disk_core's kernel takes, are built once
# (160 KB); read-only, since every sweep shares them.
_SUP_THETA = np.linspace(-math.pi, math.pi, SUP_SAMPLES, endpoint=False)
_SUP_HALF = _half_angle_pair(_SUP_THETA)
for _table in (_SUP_THETA, *_SUP_HALF):
    _table.flags.writeable = False
# Local maxima the peak scan can read: a chosen peak excludes the four
# samples around it, so the last peak is at most this far down the ranking.
_SUP_SCAN = SUP_PEAKS + 4 * (SUP_PEAKS - 1)


def _polyval(coeffs, z):
    out = np.zeros_like(np.asarray(z) * (1 + 0j))
    for c in reversed(tuple(coeffs)):
        out = out * z + c
    return out


class RationalFunction:
    """Quotient of polynomials, analytic on the closed unit disk.

    Coefficients are stored in ascending order and must be finite.
    Without an evaluator, construction checks that all denominator roots stay
    outside |w| = 1 + 1e-9. Solver-built interpolants carry a trusted evaluator
    closure whose analyticity is certified structurally (Schur parameters
    inside the disk); for those the root check is skipped, since near-minimal
    interpolants have poles legitimately closer to the circle than the margin
    while remaining outside it. They may also carry a boundary evaluator,
    theta -> h(e^{i theta}) on an array of angles, which sup_norm samples in
    place of the general one. It is called as boundary(theta, half), with
    half None or the half-angle pair of theta already taken (see
    disk_core.boundary_factors).
    """

    def __init__(self, numerator, denominator=(1.0,), *, evaluator=None, boundary=None):
        num = np.atleast_1d(np.asarray(numerator, dtype=complex))
        den = np.atleast_1d(np.asarray(denominator, dtype=complex))
        if not (np.all(np.isfinite(num)) and np.all(np.isfinite(den))):
            raise InvalidConfiguration("coefficients must be finite")
        if not np.any(den != 0):
            raise InvalidConfiguration("denominator is identically zero")
        while den.size > 1 and den[-1] == 0:
            den = den[:-1]
        while num.size > 1 and num[-1] == 0:
            num = num[:-1]
        if evaluator is None and den.size > 1:
            roots = np.roots(den[::-1])
            bad = np.abs(roots) <= 1.0 + POLE_MARGIN
            if np.any(bad):
                raise InvalidConfiguration(
                    f"denominator root at modulus {np.min(np.abs(roots[bad]))!r} "
                    f"is not outside 1 + {POLE_MARGIN}"
                )
        self.numerator = num
        self.denominator = den
        self._evaluator = evaluator
        self._boundary = boundary

    def __call__(self, z):
        if self._evaluator is not None:
            return self._evaluator(z)
        return _polyval(self.numerator, z) / _polyval(self.denominator, z)

    def __repr__(self):
        return f"RationalFunction(num deg {self.numerator.size - 1}, den deg {self.denominator.size - 1})"

    def sup_norm(self) -> float:
        """Boundary sup-norm by dense sampling plus batched parabolic refinement of the top peaks.

        The sweep evaluates |h(e^{i theta})| at SUP_SAMPLES uniform angles,
        through the boundary evaluator when the function carries one, which
        gets the sweep's half-angle pair from a table built at import, so
        the sweep takes no trig; without one, through e^{i theta}. The
        SUP_PEAKS highest local maxima of the samples, at least three grid
        steps apart, are then refined together, in at most REFINE_STEPS
        batched evaluations of one 3-point stencil per peak. Each step fits
        a parabola to (top sample / |h|)^2 on the stencil and moves the
        stencil to its vertex, by at most one stencil width; a stencil whose
        middle point was the highest also shrinks by REFINE_SHRINK. Near a
        peak that one pole close to the circle dominates, that transform is
        itself locally a parabola, so such a peak is found even when it is
        narrower than the grid step; a narrow peak shaped by several poles,
        or one on the flank of a higher sampled peak, may be under-resolved.
        Refinement stops early once every stencil is settled: its middle
        value matches the vertex value predicted one step earlier, or its
        three values agree, to REFINE_RTOL. The result is the largest
        modulus evaluated, a lower estimate of the true supremum.

        A nearly inner interpolant has thousands of local maxima made by
        rounding plateaus. They are ranked by one full argsort, whose order
        among equal samples decides which is chosen, but only the first
        _SUP_SCAN can be chosen, so only those leave numpy. With at most
        SUP_PEAKS stencils, numpy's per-call overhead would exceed the
        arithmetic, so the settled test, the vertex, the clip, the shift and
        the shrink run in Python floats, with the same IEEE operations in
        the same order as array code. Each step's evaluation, and its
        (top sample / |h|)^2, stay one batched numpy pass over all stencils.
        """
        mags = np.abs(self._on_circle(_SUP_THETA, _SUP_HALF))
        # k is a local maximum when it is at least both neighbours, cyclically
        top = np.empty(SUP_SAMPLES, dtype=bool)
        np.greater_equal(mags[1:], mags[:-1], out=top[1:])
        top[0] = mags[0] >= mags[-1]
        top[:-1] &= mags[:-1] >= mags[1:]
        top[-1] &= mags[-1] >= mags[0]
        tops = np.flatnonzero(top)
        chosen = []
        near_chosen = set()
        for k in tops[np.argsort(mags[tops])[::-1]][:_SUP_SCAN].tolist():
            if k not in near_chosen:
                chosen.append(k)
                if len(chosen) == SUP_PEAKS:
                    break
                near_chosen.update((k + d) % SUP_SAMPLES for d in range(-2, 3))
        scale = float(mags[chosen[0]])
        if scale == 0.0:
            return scale
        n = len(chosen)

        def stencil_rows(m):
            """(lo, mid, hi) of (scale / |h|)^2 for each stencil, from the
            moduli of all low points, then all middle, then all high ones."""
            u = ((scale / np.maximum(m, 1e-100 * scale)) ** 2).tolist()
            return [u[i::n] for i in range(n)]

        best = scale
        center = _SUP_THETA[chosen].tolist()
        width = [2.0 * math.pi / SUP_SAMPLES] * n
        u = stencil_rows(mags.take([k + d for d in (-1, 0, 1) for k in chosen], mode="wrap"))
        predicted = [math.inf] * n
        for _ in range(REFINE_STEPS):
            if all(
                abs(mid - p) <= REFINE_RTOL * mid
                or (abs(lo - mid) <= REFINE_RTOL * mid and abs(hi - mid) <= REFINE_RTOL * mid)
                for (lo, mid, hi), p in zip(u, predicted)
            ):
                break
            for i, (lo, mid, hi) in enumerate(u):
                w = width[i]
                curvature = lo - 2.0 * mid + hi
                if curvature > 0:
                    vertex = 0.5 * w * (lo - hi) / curvature
                    bracketed = mid <= lo and mid <= hi
                    predicted[i] = mid - 0.25 * vertex * (lo - hi) / w if bracketed else math.inf
                    center[i] += min(max(vertex, -w), w)
                    if bracketed:
                        width[i] = w / REFINE_SHRINK
                else:
                    predicted[i] = math.inf
                    center[i] += w if hi < lo else -w
            lows = [c - w for c, w in zip(center, width)]
            highs = [c + w for c, w in zip(center, width)]
            values = np.abs(self._on_circle(np.array(lows + center + highs)))
            best = max(best, float(np.max(values)))
            u = stencil_rows(values)
        return best

    def _on_circle(self, theta, half=None):
        """Values h(e^{i theta}) on an array of angles. half, if not None,
        is disk_core._half_angle_pair(theta), which a boundary evaluator
        uses in place of its own trig."""
        if self._boundary is not None:
            return self._boundary(theta, half)
        return self(np.exp(1j * theta))

    def to_dict(self) -> dict:
        return {
            "numerator": [[float(c.real), float(c.imag)] for c in self.numerator],
            "denominator": [[float(c.real), float(c.imag)] for c in self.denominator],
        }


def _as_function(h):
    """Normalize the test function argument: a callable, or a constant."""
    if callable(h):
        return h
    c = complex(h)
    if not cmath.isfinite(c):
        raise InvalidConfiguration(f"constant test function must be finite, got {c!r}")

    def const(w):
        out = np.full_like(np.asarray(w) * (1 + 0j), c)
        return out[()] if out.ndim == 0 else out

    return const


def _require_simple_zeros(B: BlaschkeProduct):
    zs = B.zeros
    for j in range(len(zs)):
        for k in range(j + 1, len(zs)):
            if abs(zs[j] - zs[k]) < SEPARATION:
                raise RepeatedZero(
                    f"zeros {zs[j]} and {zs[k]} are within {SEPARATION}; residue path needs simple zeros"
                )


def apply_toeplitz_residue(B: BlaschkeProduct, h, z) -> complex:
    """Exact residue-calculus value of (T_B h)(z) for simple zeros.

    Internally evaluated in extended precision; the returned value is cast
    back to a plain complex.
    """
    zc = as_complex(z)
    if not abs(zc) < 1.0:
        raise InvalidConfiguration(f"evaluation point must be inside the disk, got |z| = {abs(zc)!r}")
    _require_simple_zeros(B)
    for a in B.zeros:
        if abs(zc - a) < SEPARATION:
            raise PointCollision(f"z = {zc} collides with zero {a}")
    hf = _as_function(h)
    zl = np.clongdouble(1) * zc
    value = hf(zl) / eval_blaschke(B, zl)
    for k, a in enumerate(B.zeros):
        al = np.clongdouble(1) * a
        value = value + hf(al) / (_derivative_at_zero(B.zeros, k) * (al - zl))
    return complex(value)


def apply_toeplitz_contour(B: BlaschkeProduct, h, z, spec: QuadratureSpec = DEFAULT_SPEC):
    """Literal contour-integral value of (T_B h)(z), independent of the residue path.

    One call of integrate_circle on the angle integrand
    conj(B(e^{i theta})) h(e^{i theta}) e^{i theta} / (e^{i theta} - z), so
    spec.tolerance is the absolute tolerance on that mean. The integrand's
    pole at z lies 1 - |z| off the circle, and the route takes only
    |z| <= 1 - 1e-3: that keeps the peak it makes at most 1e3 high and 1e-3
    wide, a cross-check at a few thousand nodes, and leaves points nearer
    the circle to the residue route. Returns (value, error_estimate).
    """
    zc = as_complex(z)
    if not abs(zc) <= 1.0 - 1e-3:
        raise InvalidConfiguration("contour route requires |z| <= 1 - 1e-3")
    hf = _as_function(h)

    def integrand(theta):
        zeta = np.exp(1j * theta)
        return np.conj(boundary_values(B, theta)) * np.asarray(hf(zeta)) * zeta / (zeta - zc)

    value, err = integrate_circle(integrand, spec)
    return complex(value), float(err)


def lemma1_upper_bound(f: BlaschkeProduct, spec: QuadratureSpec = DEFAULT_LAMBDA_SPEC) -> float:
    """Certified upper bound 1 + Lambda(f) + error for an inner symbol f.

    The boundary sup-norm of a finite Blaschke product is exactly 1, so the
    operator norm is at most 1 plus the oscillation functional. The rotation
    search reports a lower estimate of the supremum (see circle_quad), which
    is the standing caveat on this bound.
    """
    res = lambda_functional(f, spec)
    return 1.0 + res.value + res.error_estimate
