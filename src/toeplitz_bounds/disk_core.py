"""Complex calculus for Moebius factors and finite Blaschke products on the closed disk.

Evaluation routines accept scalars or numpy arrays and preserve the input
precision, so callers that need extended precision can pass clongdouble
values. Boundary evaluation has a dedicated angle-based path that stays
accurate when zeros sit within 1e-9 of the circle, where the naive
(z - a)/(1 - z*conj(a)) form loses digits to cancellation.
"""

from __future__ import annotations

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
        if abs(r - 1.0) > 1e-6:
            raise InvalidConfiguration(f"|value| = {r!r} is too far from the unit circle")
        object.__setattr__(self, "value", v / r)


@dataclass(frozen=True)
class MoebiusFactor:
    """The disk automorphism factor z -> (z - a)/(1 - z*conj(a))."""

    a: complex

    def __post_init__(self):
        a = complex(self.a)
        if abs(a) >= 1.0:
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
            if abs(z) >= 1.0:
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
    """Evaluate B(e^{i*(theta + offset)}) without cancellation near the zeros.

    Each factor is computed from the angular offset beta = theta - arg(a):
    real parts are expressed through (1 - |a|) and 2*sin(beta/2)^2, both of
    which are benign, so the result keeps full relative accuracy even when
    1 - |a| is 1e-12. theta may be any real array; values are complex128.

    The split argument matters when the true angle is a base rotation plus a
    tiny increment: forming theta + offset in one double rounds the increment
    away at the scale of ulp(theta), which is fatal when the factor varies on
    the scale of the increment. Passing the parts separately keeps beta exact
    because the reduction is applied to the base alone. The trig identities
    used below are invariant under beta -> beta - 2*pi, so the recombined
    angle needs no second reduction.
    """
    theta = np.asarray(theta, dtype=float)
    shape = theta.shape
    if offset is not None:
        offset = np.asarray(offset, dtype=float)
        shape = np.broadcast_shapes(shape, offset.shape)
    out = np.ones(shape, dtype=complex)
    for a in B.zeros:
        rho = abs(a)
        gamma = np.angle(a) if rho > 0 else 0.0
        d = 1.0 - rho
        beta = np.mod(theta - gamma + np.pi, 2 * np.pi) - np.pi
        if offset is not None:
            beta = beta + offset
        s = np.sin(0.5 * beta)
        s2 = 2.0 * s * s
        sb = np.sin(beta)
        num = (d - s2) + 1j * sb
        den = (d + rho * s2) - 1j * (rho * sb)
        out *= np.exp(1j * gamma) * num / den
    return out


def pseudohyperbolic_distance(z, w) -> float:
    """|z - w| / |1 - z*conj(w)|, the separation metric for interpolation nodes."""
    z = as_complex(z)
    w = as_complex(w)
    return abs(z - w) / abs(1 - z * np.conj(w))
