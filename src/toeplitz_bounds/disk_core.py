"""Complex calculus for Moebius factors and finite Blaschke products on the closed disk.

Evaluation routines accept scalars or numpy arrays and preserve the input
precision, so callers that need extended precision can pass clongdouble
values. On the circle, boundary_values uses a half-angle form: the factor
of a zero rho e^{i gamma} at angle theta is e^{i gamma} w^2/|w|^2, with
w = (1 - rho) cos(beta/2) + i (1 + rho) sin(beta/2), beta = theta - gamma.
Needing only 1 - rho, it stays accurate for zeros within 1e-12 of the
circle, where (z - a)/(1 - z*conj(a)) cancels. The half-angle trig of the
array argument is shared by all factors. With an offset, theta is a scalar
and the result is the symmetric pair B(e^{i(theta + offset)}) followed by
B(e^{i(theta - offset)}), which share that trig by parity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfiguration, RepeatedZero

# Zeros closer than this are treated as confluent and rejected by the paths
# that require simple zeros.
SEPARATION: float = 1e-12


def as_complex(x) -> complex:
    """Unwrap a point wrapper to a plain complex number."""
    return complex(x.value) if hasattr(x, "value") else complex(x)


@dataclass(frozen=True)
class CirclePoint:
    """A point on the unit circle, renormalized to exact modulus 1 on construction."""

    value: complex

    def __post_init__(self):
        v = complex(self.value)
        r = abs(v)
        if not abs(r - 1.0) <= 1e-6:
            raise InvalidConfiguration(f"|value| = {r!r} is too far from the unit circle")
        object.__setattr__(self, "value", v / r)


@dataclass(frozen=True)
class MoebiusFactor:
    """The disk automorphism factor z -> (z - a)/(1 - z*conj(a))."""

    a: complex

    def __post_init__(self):
        a = complex(self.a)
        if not abs(a) < 1.0:
            raise InvalidConfiguration(f"Moebius zero must lie inside the disk, got |a| = {abs(a)!r}")
        object.__setattr__(self, "a", a)


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product with zeros listed in a fixed order.

    Degree 0 (empty zero list) is the constant function 1; it appears as the
    degenerate symbol in norm brackets.
    """

    zeros: tuple = field(default=())

    def __post_init__(self):
        zs = tuple(complex(as_complex(z)) for z in self.zeros)
        for z in zs:
            if not abs(z) < 1.0:
                raise InvalidConfiguration(f"Blaschke zero must lie inside the disk, got |a| = {abs(z)!r}")
        object.__setattr__(self, "zeros", zs)

    @property
    def degree(self) -> int:
        return len(self.zeros)


def eval_moebius(factor: MoebiusFactor, z):
    """Evaluate (z - a)/(1 - z*conj(a)); modulus <= 1 on the closed disk."""
    a = factor.a
    return (z - a) / (1 - z * np.conj(a))


def eval_blaschke(B: BlaschkeProduct, z):
    """Evaluate the product of Moebius factors at z (scalar or array)."""
    out = np.ones_like(np.asarray(z) * (1 + 0j))
    for a in B.zeros:
        out = out * (z - a) / (1 - z * np.conj(a))
    if np.isscalar(z) or np.asarray(z).ndim == 0:
        return out[()] if isinstance(out, np.ndarray) else out
    return out


def _factor_values(zeros, z):
    """Matrix F[j] = value of the j-th factor at z (z may be an array)."""
    z = np.asarray(z)
    return np.stack([(z - a) / (1 - z * np.conj(a)) for a in zeros])


def eval_blaschke_derivative(B: BlaschkeProduct, z):
    """Derivative B'(z) by the product rule over factors.

    The sum sum_j b_j'(z) * prod_{k != j} b_k(z) is algebraically identical to
    the logarithmic-derivative form B(z) * sum_j [1/(z - a_j) + conj(a_j)/(1 - z*conj(a_j))]
    but stays finite at the zeros themselves, where only the j-th term survives.
    Raises RepeatedZero when z sits on a confluent pair; higher-order zeros are
    out of scope.
    """
    zeros = B.zeros
    n = len(zeros)
    zarr = np.asarray(z)
    scalar = zarr.ndim == 0
    if n == 0:
        out = np.zeros_like(zarr * (1 + 0j))
        return out[()] if scalar else out

    # Confluent-pair guard: only degenerate when the evaluation point is there.
    for j in range(n):
        for k in range(j + 1, n):
            if abs(zeros[j] - zeros[k]) < SEPARATION and np.any(np.abs(zarr - zeros[j]) < SEPARATION):
                raise RepeatedZero(
                    f"zeros {zeros[j]} and {zeros[k]} coincide within {SEPARATION}; "
                    "derivative at a higher-order zero is unsupported"
                )

    F = _factor_values(zeros, zarr * (1 + 0j))
    out = np.zeros_like(F[0])
    for j, a in enumerate(zeros):
        rho = abs(a)
        # (1 - rho)(1 + rho) avoids cancellation for zeros near the circle.
        dnum = (1.0 - rho) * (1.0 + rho)
        dfac = dnum / (1 - zarr * np.conj(a)) ** 2
        rest = np.ones_like(out) + 0
        for k in range(n):
            if k != j:
                rest = rest * F[k]
        out = out + dfac * rest
    return out[()] if scalar else out


def boundary_values(B: BlaschkeProduct, theta, offset=None):
    """Evaluate B(e^{i*theta}), or with an offset the symmetric pair
    B(e^{i*(theta + offset)}) followed by B(e^{i*(theta - offset)}),
    without cancellation near the zeros.

    Uses the half-angle form of the module docstring. sin and cos of u/2,
    u = offset if given and theta otherwise, are taken once; each factor
    shifts them to beta/2 by angle addition with two scalars. A 2 pi shift of
    beta only flips the sign of w, so no reduction is needed. The w are
    multiplied as they come, and the product is divided by its modulus once
    before it is squared. Values are complex128.

    The split argument keeps a tiny increment that theta + offset in one
    double would round away at ulp(theta), fatal where a factor varies on
    the scale of the increment: theta - gamma is reduced as a scalar and the
    increment enters only through sin(offset/2), so theta must be a scalar
    when offset is given. The offset form returns 2N values for N offsets.
    numpy's cos is even and its sin odd, bit for bit, so both signs share
    one trig sweep and one pair of products per factor: w = x + y for
    +offset and x - y for -offset, with the bits of evaluating -offset
    directly.
    """
    theta = np.asarray(theta, dtype=float)
    if offset is not None and theta.ndim:
        raise InvalidConfiguration("boundary_values with an offset needs a scalar theta")
    pair = offset is not None
    u = np.asarray(offset, dtype=float).ravel() if pair else theta
    base = float(theta) if pair else 0.0
    cu, su = np.cos(0.5 * u).astype(complex), np.sin(0.5 * u).astype(complex)
    n = u.size
    prod = np.ones((2 * n,) if pair else u.shape, dtype=complex)
    w, y = np.empty_like(prod), np.empty_like(cu)
    x = np.empty_like(cu) if pair else w  # the grid form adds y to x in place
    rot, floor = 1.0 + 0j, 1.0
    for a in B.zeros:
        rho = abs(a)
        gamma = float(np.angle(a)) if rho > 0 else 0.0
        half = 0.5 * (math.remainder(base - gamma, 2 * math.pi) if pair else -gamma)
        s0, c0 = math.sin(half), math.cos(half)
        # w = x + y, x = cu (d c0 + i e s0), y = su (-d s0 + i e c0); cu and su
        # hold real values as complex, so each term is one complex-by-scalar
        # multiply, not a cast
        d, e = 1.0 - rho, 1.0 + rho
        np.multiply(cu, complex(d * c0, e * s0), out=x)
        np.multiply(su, complex(-d * s0, e * c0), out=y)
        if pair:
            np.add(x, y, out=w[:n])
            np.subtract(x, y, out=w[n:])
        else:
            w += y
        prod *= w
        # |w| >= 1 - rho: rescale before the product of the |w| can underflow
        floor *= d
        if floor < 1e-250:
            prod /= np.abs(prod)
            floor = 1.0
        rot *= cmath.exp(1j * gamma)
    prod /= np.abs(prod)
    prod *= prod
    prod *= rot
    return prod


def pseudohyperbolic_distance(z, w) -> float:
    """|z - w| / |1 - z*conj(w)|, the separation metric for interpolation nodes."""
    z = as_complex(z)
    w = as_complex(w)
    return abs(z - w) / abs(1 - z * np.conj(w))
