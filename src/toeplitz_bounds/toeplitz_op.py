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
shrinks toward the rounding floor of double precision. The argument h of
either route is a constant or any callable; the CLI passes its polynomials as
plain Horner closures.

RationalFunction is the one interpolant type: the Schur chain (nodes,
parameters, level) that pick_interp.construct_interpolant builds. It
evaluates the chain inside the disk and on the circle, samples its boundary
sup-norm, and expands it to monomials only in to_dict.
"""

from __future__ import annotations

import cmath
import math
from functools import cached_property

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
    _half_angle_scalars,
    as_complex,
    boundary_values,
    eval_blaschke,
)
from .errors import InvalidConfiguration, PointCollision, RepeatedZero

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


class RationalFunction:
    """The Schur chain of a Pick interpolant: h = level * f_0, analytic on the closed disk.

    With nodes x_0..x_{N-1}, parameters gamma_0..gamma_{N-1} (all strictly
    inside the disk) and b_j(z) = (z - x_j) / (1 - conj(x_j) z), the chain is
    f_{N-1} = gamma_{N-1} and f_j = (b_j f_{j+1} + gamma_j) / (1 + conj(gamma_j) b_j f_{j+1}),
    so each f_j is a disk self-map and sup |h| <= level. The last node
    enters no factor. pick_interp.construct_interpolant builds it.

    Calling it evaluates the chain in clongdouble at points of the disk. On
    the circle (_on_circle) each level's Moebius factor takes the half-angle
    form of disk_core, which needs only 1 - |x_j|, so nodes within 1e-11 of
    the circle need no extended precision there. Its scalars are taken on
    the first evaluation on the circle, once per interpolant (_levels).
    """

    def __init__(self, nodes, gammas, level):
        self.nodes = np.asarray(nodes, dtype=np.clongdouble)
        self.gammas = np.asarray(gammas, dtype=np.clongdouble)
        self.level = level

    @cached_property
    def _levels(self) -> list:
        """(p, q, e^{i arg x_j}, gamma_j, conj(gamma_j)) per Schur level, last
        first, in complex128; p and q from disk_core._half_angle_scalars."""
        g = self.gammas.astype(complex)
        polar = BlaschkeProduct(zeros=tuple(complex(a) for a in self.nodes[:-1])).polar
        levels = [(*_half_angle_scalars(a, r), cmath.exp(1j * a), gj, np.conj(gj)) for (a, r), gj in zip(polar, g)]
        return levels[::-1]

    def __call__(self, z):
        x, gammas = self.nodes, self.gammas
        zl = np.asarray(z, dtype=np.clongdouble) * np.clongdouble(1)
        f = np.full_like(zl, gammas[-1])
        for j in range(x.size - 2, -1, -1):
            b = (zl - x[j]) / (1.0 - np.conj(x[j]) * zl)
            f = (b * f + gammas[j]) / (1.0 + np.conj(gammas[j]) * b * f)
        out = (np.clongdouble(self.level) * f).astype(complex)
        return out[()] if out.ndim == 0 else out

    def __repr__(self):
        return f"RationalFunction({self.nodes.size} nodes, level {self.level!r})"

    def sup_norm(self) -> float:
        """Boundary sup-norm of the chain by dense sampling plus batched parabolic refinement of the top peaks.

        The sweep evaluates |h(e^{i theta})| at SUP_SAMPLES uniform angles
        through _on_circle, which takes the sweep's half-angle pair from a
        table built at import and each level's scalars from _levels, so the
        sweep takes no trig; its factors pass through one buffer, in a fixed
        operand order, since the multiply can be fused. The SUP_PEAKS
        highest local maxima of the samples, at least three grid steps
        apart, are then refined together, in at most REFINE_STEPS batched
        evaluations of one 3-point stencil per peak. Each step fits a
        parabola to (top sample / |h|)^2 on the stencil and moves the
        stencil to its vertex, by at most one stencil width; a stencil whose
        middle point was the highest also shrinks by REFINE_SHRINK.
        Refinement stops early once every stencil is settled: its middle
        value matches the vertex value predicted one step earlier, or its
        three values agree, to REFINE_RTOL. The result is the largest
        modulus evaluated, a lower estimate of the true supremum.

        Its measured reach, on two-level chains whose first node lies delta
        from the circle (three node angles by three parameter pairs, where
        the exact supremum is known): within 1.2e-15 relative at delta =
        1e-2 and 3e-3, where the sweep alone reads up to 2.6e-3 low; at
        delta = 1e-3, 3 of 9 cases short by up to 9.7e-7; up to 12 % low at
        delta = 1e-4, and up to 76 % low at 1e-7.

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
        """Values h(e^{i theta}) on an array of angles, in complex128. half,
        if not None, is disk_core._half_angle_pair(theta) already taken (the
        sweep table). The levels, last first, share three buffers of theta's
        size: each factor b = e^{i arg x_j} (w/|w|)^2 is built as
        boundary_values builds it for one zero and fed into f <- (b f +
        gamma_j) / (1 + conj(gamma_j) b f). numpy's complex multiply can be
        fused (FMA), so a b and b a can differ in the last bit, and on one
        element an in-place product takes another loop; with operand order
        kept and b f in its own buffer, values keep per-level bits."""
        cu, su = _half_angle_pair(theta) if half is None else half
        f = np.full(np.shape(theta), self.gammas[-1], dtype=complex)
        b, scratch, modulus = np.empty_like(f), np.empty_like(f), np.empty(f.shape)
        for p, q, turn, g, g_conj in self._levels:
            np.multiply(cu, p, out=b)
            b += np.multiply(su, q, out=scratch)
            b *= np.divide(1.0, np.abs(b, out=modulus), out=modulus)
            b *= b
            b *= turn
            np.multiply(b, f, out=scratch)
            np.add(1.0, np.multiply(g_conj, scratch, out=b), out=b)
            scratch += g
            np.divide(scratch, b, out=f)
        return self.level * f

    def to_dict(self) -> dict:
        """The chain expanded to monomial numerator and denominator (degree
        <= N - 1, ascending, denominator normalized to 1 at 0), trailing
        zero coefficients trimmed."""
        x, gammas = self.nodes, self.gammas
        P = np.array([gammas[-1]], dtype=np.clongdouble)
        Q = np.array([1.0], dtype=np.clongdouble)
        for j in range(x.size - 2, -1, -1):
            bnum = np.array([-x[j], 1.0], dtype=np.clongdouble)
            bden = np.array([1.0, -np.conj(x[j])], dtype=np.clongdouble)
            top = np.convolve(bnum, P)
            bot = np.convolve(bden, Q)
            P = top + gammas[j] * bot
            Q = bot + np.conj(gammas[j]) * top

        def trimmed(c):
            while c.size > 1 and c[-1] == 0:
                c = c[:-1]
            return [[float(v.real), float(v.imag)] for v in c]

        return {
            "numerator": trimmed((np.clongdouble(self.level) * P / Q[0]).astype(complex)),
            "denominator": trimmed((Q / Q[0]).astype(complex)),
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
    """Estimated upper bound 1 + Lambda(f) + error for an inner symbol f.

    The boundary sup-norm of a finite Blaschke product is exactly 1, so the
    operator norm is at most 1 plus the oscillation functional. The value is
    a search estimate, not certified: the rotation search reports a lower
    estimate of the supremum, and its error_estimate does not cover the
    search (see circle_quad).
    """
    res = lambda_functional(f, spec)
    return 1.0 + res.value + res.error_estimate
