"""Toeplitz operator application for Blaschke symbols, by residues and by contour.

For an inner rational symbol B and h analytic on the closed disk, the operator

    (T_B h)(z) = (1/2pi) * integral conj(B(zeta)) h(zeta) zeta / (zeta - z) dm(zeta)

reduces by residue calculus to h(z)/B(z) + sum_k h(a_k) / (B'(a_k) (a_k - z))
over the (simple) zeros a_k of B. Both routes are implemented independently;
their agreement is a standing cross-check, never collapsed into one path.

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
    as_complex,
    boundary_values,
    eval_blaschke,
    eval_blaschke_derivative,
)
from .errors import InvalidConfiguration, PointCollision, RepeatedZero

POLE_MARGIN = 1e-9
# sup_norm refinement: at most REFINE_STEPS batched parabolic steps after the
# sweep, a stencil shrink of REFINE_SHRINK per bracketed step, and a stencil
# counts as settled at a relative change of a few units of rounding.
REFINE_STEPS = 6
REFINE_SHRINK = 8.0
REFINE_RTOL = 8 * 2.0**-52


def _polyval(coeffs, z):
    out = np.zeros_like(np.asarray(z) * (1 + 0j))
    for c in reversed(tuple(coeffs)):
        out = out * z + c
    return out


class RationalFunction:
    """Quotient of polynomials, analytic on the closed unit disk.

    Coefficients are stored in ascending order and must be finite.
    Construction checks that all denominator roots stay outside
    |w| = 1 + 1e-9. Solver-built interpolants may carry a trusted evaluator
    closure whose analyticity is certified structurally (Schur parameters
    inside the disk); for those the root check is skipped, since near-minimal
    interpolants have poles legitimately closer to the circle than the margin
    while remaining outside it. They may also carry a boundary evaluator,
    theta -> h(e^{i theta}) on an array of angles, which sup_norm samples in
    place of the general one.
    """

    def __init__(
        self, numerator, denominator=(1.0,), *, evaluator=None, boundary=None, validate_poles=True
    ):
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
        if evaluator is None and validate_poles and den.size > 1:
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

    def sup_norm(self, samples: int = 4096, peaks: int = 8) -> float:
        """Boundary sup-norm by dense sampling plus batched parabolic refinement of the top peaks.

        The sweep evaluates |h(e^{i theta})| at `samples` uniform angles,
        through the boundary evaluator when the function carries one. The
        `peaks` highest local maxima of the samples, at least three grid steps
        apart, are then refined together, in at most REFINE_STEPS batched
        evaluations of one 3-point stencil per peak. Each step fits a parabola
        to (top sample / |h|)^2 on the stencil and moves the stencil to its
        vertex, by at most one stencil width; a stencil whose middle point was
        the highest also shrinks by REFINE_SHRINK. Near a peak that one pole
        close to the circle dominates, that transform is itself locally a
        parabola, so such a peak is found even when it is narrower than the
        grid step; a narrow peak shaped by several poles, or one on the flank
        of a higher sampled peak, may be under-resolved. Refinement stops
        early once every stencil is settled: its middle value matches the
        vertex value predicted one step earlier, or its three values agree,
        to REFINE_RTOL. The result is the largest modulus evaluated, a lower
        estimate of the true supremum.
        """
        theta = np.linspace(-math.pi, math.pi, samples, endpoint=False)
        mags = np.abs(self._on_circle(theta))
        tops = np.flatnonzero((mags >= np.roll(mags, 1)) & (mags >= np.roll(mags, -1)))
        chosen = []
        near_chosen = set()
        for k in tops[np.argsort(mags[tops])[::-1]].tolist():
            if k not in near_chosen:
                chosen.append(k)
                if len(chosen) == peaks:
                    break
                near_chosen.update((k + d) % samples for d in range(-2, 3))
        idx = np.array(chosen)
        scale = float(mags[idx[0]])
        if scale == 0.0:
            return scale

        def inverse_square(m):
            return (scale / np.maximum(m, 1e-100 * scale)) ** 2

        best = scale
        center = theta[idx]
        width = np.full(idx.size, 2.0 * math.pi / samples)
        u = inverse_square(np.stack([mags[idx - 1], mags[idx], mags[(idx + 1) % samples]]))
        predicted = np.full(idx.size, np.inf)
        for _ in range(REFINE_STEPS):
            u_lo, u_mid, u_hi = u
            held = np.abs(u_mid - predicted) <= REFINE_RTOL * u_mid
            flat = np.maximum(np.abs(u_lo - u_mid), np.abs(u_hi - u_mid)) <= REFINE_RTOL * u_mid
            if np.all(held | flat):
                break
            curvature = u_lo - 2.0 * u_mid + u_hi
            convex = curvature > 0
            vertex = 0.5 * width * (u_lo - u_hi) / np.where(convex, curvature, 1.0)
            bracketed = convex & (u_mid <= u_lo) & (u_mid <= u_hi)
            predicted = np.where(bracketed, u_mid - 0.25 * vertex * (u_lo - u_hi) / width, np.inf)
            center = center + np.where(
                convex, np.clip(vertex, -width, width), np.where(u_hi < u_lo, width, -width)
            )
            width = np.where(bracketed, width / REFINE_SHRINK, width)
            stencils = np.concatenate([center - width, center, center + width])
            values = np.abs(self._on_circle(stencils))
            best = max(best, float(np.max(values)))
            u = inverse_square(values.reshape(3, -1))
        return best

    def _on_circle(self, theta):
        """Values h(e^{i theta}) on an array of angles."""
        if self._boundary is not None:
            return self._boundary(theta)
        return self(np.exp(1j * theta))

    def to_dict(self) -> dict:
        return {
            "numerator": [[float(c.real), float(c.imag)] for c in self.numerator],
            "denominator": [[float(c.real), float(c.imag)] for c in self.denominator],
        }


def _as_function(h):
    """Normalize the test function argument: rational, Blaschke, callable, or constant."""
    if isinstance(h, RationalFunction):
        return h
    if isinstance(h, BlaschkeProduct):
        return lambda w: eval_blaschke(h, w)
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
    for a in B.zeros:
        al = np.clongdouble(1) * a
        value = value + hf(al) / (eval_blaschke_derivative(B, al) * (al - zl))
    return complex(value)


def apply_toeplitz_contour(B: BlaschkeProduct, h, z, spec: QuadratureSpec = DEFAULT_SPEC):
    """Literal contour-integral value of (T_B h)(z), independent of the residue path.

    Uniform trapezoid sums with node doubling: spectrally accurate because the
    integrand is analytic in an annulus around the circle once |z| <= 1 - 1e-3.
    Falls back to the adaptive panel integrator if doubling stalls. Returns
    (value, error_estimate).
    """
    zc = as_complex(z)
    if not abs(zc) <= 1.0 - 1e-3:
        raise InvalidConfiguration("contour route requires |z| <= 1 - 1e-3")
    hf = _as_function(h)

    def integrand_theta(theta):
        zeta = np.exp(1j * theta)
        return np.conj(boundary_values(B, theta)) * np.asarray(hf(zeta)) * zeta / (zeta - zc)

    n = 512
    mean = integrand_theta(_uniform_angles(n)).mean()
    while n < (1 << 21):
        # Trapezoid on a periodic integrand: doubling reuses all old nodes.
        odd = _uniform_angles(2 * n, odd_only=True)
        mean2 = 0.5 * (mean + integrand_theta(odd).mean())
        err = abs(mean2 - mean)
        mean = mean2
        n *= 2
        if err <= spec.tolerance * (1.0 + abs(mean)):
            return complex(mean), float(err)

    def f_zeta(zeta):
        th = np.angle(zeta)
        return np.conj(boundary_values(B, th)) * np.asarray(hf(zeta)) * zeta / (zeta - zc)

    value, err2 = integrate_circle(f_zeta, spec)
    return complex(value), float(err2)


def _uniform_angles(n: int, odd_only: bool = False) -> np.ndarray:
    """Uniform angles 2*pi*j/n; with odd_only, the midpoints new to a doubling step."""
    if odd_only:
        return (2.0 * math.pi / n) * (np.arange(n // 2) * 2 + 1)
    return (2.0 * math.pi / n) * np.arange(n)


def lemma1_upper_bound(
    f: BlaschkeProduct,
    spec: QuadratureSpec = DEFAULT_LAMBDA_SPEC,
    rotation_grid: int = 256,
) -> float:
    """Certified upper bound 1 + Lambda(f) + error for an inner symbol f.

    The boundary sup-norm of a finite Blaschke product is exactly 1, so the
    operator norm is at most 1 plus the oscillation functional. The rotation
    search reports a lower estimate of the supremum (see circle_quad), which
    is the standing caveat on this bound.
    """
    res = lambda_functional(f, spec, rotation_grid)
    return 1.0 + res.value + res.error_estimate
