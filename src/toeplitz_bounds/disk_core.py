"""Finite Blaschke products on the closed disk: values inside, the
derivative at the zeros, and values on the circle.

eval_blaschke accepts scalars or numpy arrays and preserves the input
precision, so callers that need extended precision can pass clongdouble
values. The residue route needs B' only at the zeros, where the private
_derivative_at_zero takes it from the other factors.

On the circle, boundary_values uses a half-angle form: the factor of a zero
rho e^{i gamma} at angle theta is e^{i gamma} w^2/|w|^2, with
w = (1 - rho) cos(beta/2) + i (1 + rho) sin(beta/2), beta = theta - gamma.
Needing only 1 - rho, it stays accurate for zeros within 1e-12 of the
circle, where (z - a)/(1 - z*conj(a)) cancels. Each zero's (gamma, rho)
comes from zero_polar once per BlaschkeProduct, its polar attribute, taken
on first use and read by every later sweep. One private generator,
_half_angle_terms, takes the half-angle trig of the array argument once, by
_half_angle_pair, and yields each factor's term w from it and those pairs.
boundary_values multiplies the terms into B; with an offset, the result is
the symmetric pair B(e^{i(theta + offset)}) followed by
B(e^{i(theta - offset)}), which share that trig by parity. There theta is a
scalar, or one rotation per offset, constant along runs, so the sweeps of
many rotations share one call: each run's theta - gamma is reduced once, as
a scalar theta's is, and each node keeps the bits of the call at its own
rotation. A caller that needs the half-angle trig of the offsets itself
takes their pair first, by _half_angle_pair, and passes it as half, so the
trig is taken once.
The two scalars that shift that trig to one zero's beta/2 have one
definition, _half_angle_scalars. The Schur chain (toeplitz_op.RationalFunction)
takes them once per interpolant and its sweep's pair from a table built at
import, so that sweep takes no trig at all.

boundary_values and the chain normalise by multiplying with the reciprocal
modulus: numpy divides a complex by a real (cast to complex) as
(re + im*0) * (1/r), so this has the division's bits at about half its cost.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidConfiguration

# Zeros closer than this are treated as confluent and rejected by the paths
# that require simple zeros.
SEPARATION: float = 1e-12


def as_complex(x) -> complex:
    """Unwrap a point wrapper to a plain complex number."""
    return complex(x.value) if hasattr(x, "value") else complex(x)


def as_int(value, name: str) -> int:
    """value as an int when it is integral: an int (not a bool), a numpy
    integer, or a float with no fractional part. Anything else raises
    InvalidConfiguration."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise InvalidConfiguration(f"{name} must be an integer, got {value!r}")


def complex_pairs(entries) -> tuple:
    """Complex values from a list of [re, im] pairs, as JSON files write them."""
    values = []
    for entry in entries:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
            raise InvalidConfiguration(f"expected an [re, im] pair, got {entry!r}")
        values.append(complex(*entry))
    return tuple(values)


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
class BlaschkeProduct:
    """Finite Blaschke product with zeros listed in a fixed order.

    Degree 0 (empty zero list) is the constant function 1; it appears as the
    degenerate symbol in norm brackets.

    polar is each zero's (gamma, rho) from zero_polar, in the order of zeros:
    taken once, on first use, and kept, so that the kernels on the circle
    (boundary_values, the Lambda seed ladders and fold solver, the Schur
    chain) read it instead of taking np.angle again.
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

    @cached_property
    def polar(self) -> tuple:
        return tuple(zero_polar(a) for a in self.zeros)


def eval_blaschke(B: BlaschkeProduct, z):
    """Evaluate the product of Moebius factors at z (scalar or array)."""
    out = np.ones_like(np.asarray(z) * (1 + 0j))
    for a in B.zeros:
        out = out * (z - a) / (1 - z * np.conj(a))
    if np.isscalar(z) or np.asarray(z).ndim == 0:
        return out[()] if isinstance(out, np.ndarray) else out
    return out


def zero_polar(a) -> tuple:
    """(gamma, rho), the angle and the modulus of the zero a as every kernel
    on the circle takes them: Python's abs, numpy's angle, and angle 0 at
    the origin. BlaschkeProduct.polar takes them here, once per product, and
    the integrand, the seed ladders and the fold solver all read that, so
    they see the same deficit 1 - rho: np.abs can differ by an ulp, which is
    1e-7 of the deficit of a zero 1e-9 from the circle."""
    rho = abs(a)
    return (float(np.angle(a)) if rho > 0 else 0.0), rho


def _derivative_at_zero(zeros, k):
    """B'(a_k) in clongdouble for simple zeros: b_k'(a_k) = 1/(1 - |a_k|^2)
    times the other factors at a_k.

    The product rule's terms j != k all carry the factor b_k(a_k), which is
    exactly 0 at a_k, so this is the whole sum, with its bits as long as the
    other factors are multiplied together before b_k'(a_k) joins them.
    """
    al = np.clongdouble(1) * zeros[k]
    rest = np.clongdouble(1)
    for j, a in enumerate(zeros):
        if j != k:
            rest = rest * ((al - a) / (1 - al * np.conj(a)))
    rho = abs(zeros[k])
    # (1 - rho)(1 + rho) avoids cancellation for zeros near the circle.
    return (1.0 - rho) * (1.0 + rho) / (1 - al * np.conj(zeros[k])) ** 2 * rest


def _half_angle_pair(u):
    """cos(u/2) and sin(u/2) on the array u, real values held as complex:
    the trig that _half_angle_terms builds every term from."""
    return np.cos(0.5 * u).astype(complex), np.sin(0.5 * u).astype(complex)


def _half_angle_scalars(gamma, rho, base=None):
    """(p, q): the term w of the zero rho e^{i gamma} at beta (as in
    _half_angle_terms) is cu p + su q, cu and su the pair of _half_angle_pair
    held as complex, so each term is one complex-by-scalar multiply, not a
    cast. By angle addition p = d c0 + i e s0 and q = -d s0 + i e c0, with
    d = 1 - rho, e = 1 + rho and (c0, s0) the cos and sin of (beta - u)/2."""
    half = 0.5 * (-gamma if base is None else math.remainder(base - gamma, 2 * math.pi))
    d, e = 1.0 - rho, 1.0 + rho
    s0, c0 = math.sin(half), math.cos(half)
    return complex(d * c0, e * s0), complex(-d * s0, e * c0)


def _half_angle_terms(polar, u, base=None, half=None):
    """Yield, zero by zero, the half-angle term w at every angle, with
    d = 1 - rho and e^{i gamma}; w is one buffer, overwritten by the next yield.
    polar is the zeros' (gamma, rho) pairs, a BlaschkeProduct's polar, so no
    zero's angle is taken here.

    sin and cos of u/2 are taken once, by _half_angle_pair, and each zero
    shifts them to its beta/2 with the two scalars of _half_angle_scalars.
    A 2 pi shift of beta only flips the sign of w, so no reduction is needed.
    Without a base, beta is u - gamma on the array u. With a base, beta is
    base - gamma + u and base - gamma - u, and w holds the + terms followed
    by the - terms. The base is a scalar, or an array of u's shape that is
    constant along runs: base - gamma is then reduced once per run, and each
    node gets the two scalars of its run, the ones a scalar base would give
    it. half, if given, is the pair _half_angle_pair(u) already taken by the
    caller, and no trig is taken here; it is read, never written. No zeros,
    no sweep.
    """
    if not polar:
        return
    pair = base is not None
    cu, su = _half_angle_pair(u) if half is None else half
    n = u.size
    w = np.empty((2 * n,) if pair else u.shape, dtype=complex)
    y = np.empty_like(cu)
    x = np.empty_like(cu) if pair else w  # the grid form adds y to x in place
    # one (base, cu, su, x, y) a run of equal bases, views of the sweep's arrays
    runs = [(base, cu, su, x, y)]
    if isinstance(base, np.ndarray):
        first = np.ones(n, dtype=bool)  # the first node of each run
        first[1:] = base[1:] != base[:-1]
        starts = np.flatnonzero(first).tolist()
        runs = [
            (float(base[i]), cu[i:j], su[i:j], x[i:j], y[i:j]) for i, j in zip(starts, starts[1:] + [n])
        ]
    for gamma, rho in polar:
        for b, cu_r, su_r, x_r, y_r in runs:
            p, q = _half_angle_scalars(gamma, rho, b)
            np.multiply(cu_r, p, out=x_r)
            np.multiply(su_r, q, out=y_r)
        if pair:
            np.add(x, y, out=w[:n])
            np.subtract(x, y, out=w[n:])
        else:
            w += y
        yield w, 1.0 - rho, cmath.exp(1j * gamma)


def boundary_values(B: BlaschkeProduct, theta, offset=None, half=None):
    """Evaluate B(e^{i*theta}), or with an offset the symmetric pair
    B(e^{i*(theta + offset)}) followed by B(e^{i*(theta - offset)}),
    without cancellation near the zeros.

    Uses the half-angle form of the module docstring, with the terms w of
    _half_angle_terms on u = offset if given and theta otherwise. The w are
    multiplied as they come, and the product is normalised once, by the
    reciprocal of its modulus, before it is squared. Values are complex128.

    The split argument keeps a tiny increment that theta + offset in one
    double would round away at ulp(theta), fatal where a factor varies on
    the scale of the increment: theta - gamma is reduced as a scalar and the
    increment enters only through sin(offset/2). With an offset, theta is a
    scalar, or has the offset's shape: one rotation per offset, constant
    along runs, reduced once per run, so every value has the bits of the
    scalar call at its rotation; any other shape raises
    InvalidConfiguration. The offset form returns 2N values for N offsets.
    numpy's cos is even and its sin odd, bit for bit, so both signs share
    one trig sweep and one pair of products per factor: w = x + y for
    +offset and x - y for -offset, with the bits of evaluating -offset
    directly. half, _half_angle_pair(u) already taken by the caller, stands
    in for the kernel's own trig of u; the values keep their bits.
    """
    theta = np.asarray(theta, dtype=float)
    pair = offset is not None
    u = np.asarray(offset, dtype=float) if pair else theta
    if pair:
        if theta.ndim and theta.shape != u.shape:
            raise InvalidConfiguration(
                f"boundary_values needs a scalar theta or one of the offset's shape {u.shape}, got {theta.shape}"
            )
        theta, u = (theta.ravel() if theta.ndim else float(theta)), u.ravel()
    prod = np.ones((2 * u.size,) if pair else u.shape, dtype=complex)
    rot, floor = 1.0 + 0j, 1.0
    if half is not None:
        half = tuple(p.reshape(u.shape) for p in half)
    for w, d, turn in _half_angle_terms(B.polar, u, theta if pair else None, half):
        prod *= w
        # |w| >= 1 - rho: rescale before the product of the |w| can underflow
        floor *= d
        if floor < 1e-250:
            prod *= 1.0 / np.abs(prod)
            floor = 1.0
        rot *= turn
    prod *= 1.0 / np.abs(prod)
    prod *= prod
    prod *= rot
    return prod


def pseudohyperbolic_distance(z, w) -> float:
    """|z - w| / |1 - z*conj(w)|, the separation metric for interpolation nodes."""
    z = as_complex(z)
    w = as_complex(w)
    return abs(z - w) / abs(1 - z * np.conj(w))
