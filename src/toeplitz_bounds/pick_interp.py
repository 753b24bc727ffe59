"""Minimal-norm analytic interpolation on the disk, made constructive.

Feasibility at level mu is the positive semidefiniteness of the matrix with
entries (mu^2 - y_j conj(y_k)) / (1 - x_j conj(x_k)). Writing the kernel
matrix 1/(1 - x_j conj(x_k)) as L L*, that is mu^2 I >= A A* with
A = L^-1 diag(y) L, so the minimal level is the spectral norm of A in closed
form. An explicit interpolant at any strictly feasible level comes from the
Schur recursion with the free parameter pinned to zero at the last step. The
recursion is also the one feasibility test: the level is strictly feasible
exactly when every parameter gamma_j lies strictly inside the unit disk.
Those parameters certify analyticity of the interpolant on the closed disk
structurally: the returned function is mu times a composition of disk
self-maps, so its sup-norm never exceeds the level used.

The interpolant is toeplitz_op.RationalFunction, which holds the chain
itself (nodes, parameters and level) and evaluates, samples and expands it.

Ray configurations push nodes within 1e-11 of the circle, where the products
1 - x_j conj(x_k) live at the rounding floor of double precision. The kernel
matrix, its Cholesky factor and the whole recursion are therefore computed in
clongdouble; on x86 that buys about ten extra digits exactly where the
cancellation bites, and the chain is evaluated inside the disk in the same
precision. The one exception is the chain's boundary sweep behind the
reported sup-norm, which runs in complex128 (see RationalFunction).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .disk_core import (
    SEPARATION,
    as_complex,
    complex_pairs,
    pseudohyperbolic_distance,
)
from .errors import (
    InvalidConfiguration,
    NotStrictlyFeasible,
    NumericalBreakdown,
)
from .toeplitz_op import RationalFunction

# Pairs closer than this in the pseudohyperbolic metric trigger a conditioning
# warning. The scaled Pick matrix has a minimum eigenvalue on the order of the
# squared pseudohyperbolic separation, so below 1e-6 the Schur recursion runs
# out of precision and refuses the level; the warning band sits above that cliff.
CLUSTER_GUARD = 1e-4


@dataclass(frozen=True)
class InterpolationProblem:
    """Distinct disk nodes with complex target values."""

    nodes: tuple
    targets: tuple

    def __post_init__(self):
        nodes = tuple(complex(as_complex(x)) for x in self.nodes)
        targets = tuple(complex(t) for t in self.targets)
        if len(nodes) < 1:
            raise InvalidConfiguration("at least one node is required")
        if len(nodes) != len(targets):
            raise InvalidConfiguration("nodes and targets must have equal length")
        for y in targets:
            if not cmath.isfinite(y):
                raise InvalidConfiguration(f"target {y!r} is not finite")
        for x in nodes:
            if not abs(x) < 1.0:
                raise InvalidConfiguration(f"node |x| = {abs(x)!r} is not inside the open disk")
        for j in range(len(nodes)):
            for k in range(j + 1, len(nodes)):
                if abs(nodes[j] - nodes[k]) < SEPARATION:
                    raise InvalidConfiguration(
                        f"nodes {nodes[j]} and {nodes[k]} are closer than {SEPARATION}"
                    )
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "targets", targets)

    @classmethod
    def from_dict(cls, d: dict) -> "InterpolationProblem":
        return cls(nodes=complex_pairs(d["nodes"]), targets=complex_pairs(d["targets"]))


def minimal_level(problem: InterpolationProblem) -> float:
    """Infimal feasible level, in closed form: mu = ||L^-1 diag(y) L||_2.

    L L* is the kernel matrix 1/(1 - x_j conj(x_k)) after Jacobi scaling to a
    unit diagonal, which leaves the norm unchanged (diagonal matrices
    commute) and keeps clustered nodes well scaled. Assembly, Cholesky factor
    and forward solve run in clongdouble, row by row (N is at most about 20):
    a double-precision factor misplaces the level once the kernel condition
    passes about 1e12 and fails outright at a few times 1e18. Only the final
    2-norm, the largest singular value, runs in double. With one node the
    formula gives |y|. A kernel matrix that is not positive definite even in
    clongdouble raises NumericalBreakdown.
    """
    x = np.array(problem.nodes, dtype=np.clongdouble)
    d = np.sqrt(1.0 - np.abs(x) ** 2)
    K = np.outer(d, d) / (1.0 - np.outer(x, x.conj()))
    L = np.zeros_like(K)
    for j in range(x.size):
        pivot = (K[j, j] - L[j, :j] @ L[j, :j].conj()).real
        if not pivot > 0:
            raise NumericalBreakdown(
                f"kernel matrix is not positive definite (pivot {j} is {float(pivot)!r})"
            )
        L[j, j] = np.sqrt(pivot)
        L[j + 1 :, j] = (K[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j].conj()) / L[j, j]
    X = np.array(problem.targets, dtype=np.clongdouble)[:, None] * L
    for i in range(x.size):
        X[i] = (X[i] - L[i, :i] @ X[:i]) / L[i, i]
    return float(np.linalg.svd(X.astype(complex), compute_uv=False)[0])


@dataclass(frozen=True)
class InterpolantCertificate:
    """An explicit interpolant with measured, not assumed, quality numbers;
    sup_norm is None when construction took no boundary sample."""

    interpolant: RationalFunction
    level: float
    residuals: tuple
    sup_norm: float | None
    warnings: tuple = field(default=())

    def to_dict(self) -> dict:
        return {
            "interpolant": self.interpolant.to_dict(),
            "level": self.level,
            "residuals": list(self.residuals),
            "sup_norm": self.sup_norm,
            "warnings": list(self.warnings),
        }


def _schur_parameters(nodes, targets, mu):
    """Run the Schur reduction; returns the gamma parameters (clongdouble)."""
    x = np.array(nodes, dtype=np.clongdouble)
    w = np.array(targets, dtype=np.clongdouble) / np.clongdouble(mu)
    N = x.size
    gammas = np.empty(N, dtype=np.clongdouble)
    for j in range(N):
        g = w[j]
        if not (abs(g) < 1.0):
            raise NotStrictlyFeasible(
                f"recursion parameter {j} has modulus {float(abs(g))!r} at level {mu!r}"
            )
        gammas[j] = g
        if j < N - 1:
            tail = w[j + 1 :]
            moved = (tail - g) / (1.0 - np.conj(g) * tail)
            ratio = (1.0 - np.conj(x[j]) * x[j + 1 :]) / (x[j + 1 :] - x[j])
            w[j + 1 :] = moved * ratio
    return x, gammas


# perfbench/tracing.py patches this name; nothing calls it (ROADMAP item 1a)
pick_feasible = None


def construct_interpolant(
    problem: InterpolationProblem, mu: float, *, sample: bool = True
) -> InterpolantCertificate:
    """Build the interpolant at a strictly feasible level.

    The recursion degenerates exactly at the minimal level, so
    certify_lower_bound and `pick --construct` without --level go through
    omega_bounds.construct_on_slack_ladder, which tries minimal_level(problem)
    * (1 + slack) for each slack of SLACK_LADDER in turn. The Schur recursion
    is the feasibility test: a parameter of modulus >= 1 raises
    NotStrictlyFeasible, and a residual above 1e-8 (1 + max |y|) raises
    NumericalBreakdown. The result carries achieved residuals and a sampled
    boundary sup-norm, RationalFunction.sup_norm over the chain's complex128
    boundary values: a lower estimate reported for inspection, never divided by.
    It is exact to about 1e-15 while every node is at least 3e-3 from the
    circle, but reads up to 12 % low with a node 1e-4 from it.
    Analyticity, and sup |h| <= mu, are certified by the recursion
    parameters, all strictly inside the disk. A level that is not positive
    and finite raises InvalidConfiguration.

    sample=False builds and checks the same chain, residuals and warnings
    but takes no boundary sample, and leaves sup_norm None. Only
    omega_bounds.certify_lower_bound asks for it, through the ladder, since
    no certificate reads the sample. The keyword goes with the sup_norm
    field (ROADMAP item 7), once the sample is taken only where
    `pick --construct` prints it.
    """
    if not (0.0 < mu < np.inf):
        raise InvalidConfiguration(f"level mu must be positive and finite, got {mu!r}")
    h = RationalFunction(*_schur_parameters(problem.nodes, problem.targets, mu), mu)

    nodes_arr = np.array(problem.nodes, dtype=complex)
    targets_arr = np.array(problem.targets, dtype=complex)
    residuals = tuple(float(r) for r in np.abs(h(nodes_arr) - targets_arr))
    ymax = float(np.max(np.abs(targets_arr)))
    if max(residuals) > 1e-8 * (1.0 + ymax):
        raise NumericalBreakdown(
            f"achieved residual {max(residuals)!r} exceeds the certificate bound"
        )

    warnings = []
    nodes = problem.nodes
    for j in range(len(nodes)):
        for k in range(j + 1, len(nodes)):
            if pseudohyperbolic_distance(nodes[j], nodes[k]) < CLUSTER_GUARD:
                warnings.append(
                    f"nodes {j} and {k} are pseudohyperbolically closer than {CLUSTER_GUARD}"
                )

    return InterpolantCertificate(
        interpolant=h,
        level=float(mu),
        residuals=residuals,
        sup_norm=float(h.sup_norm()) if sample else None,
        warnings=tuple(warnings),
    )
