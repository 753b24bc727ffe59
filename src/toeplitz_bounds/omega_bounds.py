"""Certified norm brackets for ray-configured Blaschke symbols.

The extremal family puts zeros on a common ray: x_k = (1 - q^k) xi for
k = 1..n, with a probe point x_m = (1 - q^m) xi further out on the same ray.
Interpolation targets are chosen so that the Toeplitz functional at the probe
telescopes to a closed real value

    V = 1 + sum_k (|x_k|^2 - 1) / (|x_k| - |x_m|),

which decreases monotonically in m toward the limit 1 + 2n - sum_k q^k. An
explicit interpolant h0 achieving the targets is built by the Schur
recursion at a level slightly above the closed-form minimal level; the
recursion guarantees sup |h0| <= level, so |V| divided by the level is a
certified lower bound on the operator norm, and 1 plus the oscillation
functional of the symbol is the matching upper bound. Everything is finite
and checkable: no asymptotic interpolation constant enters the certificate.

Target values are assembled from the radius deficits d_k = q^k, never from
differences of the node coordinates themselves: identities such as
1 - (1-d_j)(1-d_k) = d_j + d_k - d_j*d_k keep full relative accuracy where
the direct form has already rounded to zero.

RayConfiguration is the one place a ray is built. It raises
InvalidConfiguration when the probe deficit q^m lies below
PROBE_DEFICIT_FLOOR, and builds the symbol (symbol()) and the interpolation
problem (problem()). The zeros lie in the paper's set E_xi for every inner
radius floor up to 1 - q, so no computation takes a floor. A convergence
study sweeps configurations over a (q, m) schedule, DEFAULT_Q_SCHEDULE by
DEFAULT_M_OFFSETS unless given, and emits a NaN row for each cell below the
floor; the bracket of one configuration is the study of its single q.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .circle_quad import DEFAULT_LAMBDA_SPEC, QuadratureSpec
from .disk_core import BlaschkeProduct, CirclePoint, as_complex, as_int
from .errors import InvalidConfiguration, NotStrictlyFeasible, NumericalBreakdown
from .pick_interp import InterpolationProblem, construct_interpolant, minimal_level
from .toeplitz_op import apply_toeplitz_residue, lemma1_upper_bound

# Rows whose probe radius deficit q^m drops below this cannot be represented
# in double precision (1 - q^m rounds into the circle); they are marked, not run.
PROBE_DEFICIT_FLOOR = 1e-12
# Level slack ladder: construction retries with a larger margin above the
# minimal level when the recursion degenerates at the conditioning floor.
SLACK_LADDER = (1e-6, 1e-5, 1e-4, 1e-3)
# The default (q, m) schedule of a study: these q, and probes m = n + offset.
DEFAULT_Q_SCHEDULE = (0.3, 0.2, 0.1, 0.05)
DEFAULT_M_OFFSETS = (2, 4, 8, 16)


def _ray_zeros(xi: complex, q: float, n: int) -> np.ndarray:
    """Zeros (1 - q^k) xi, k = 1..n, of the ray symbol."""
    return (1.0 - float(q) ** np.arange(1, n + 1, dtype=float)) * xi


@dataclass(frozen=True)
class RayConfiguration:
    """Zeros and probe on a common ray, with the generating parameters.

    The one owner of a ray: it normalises q to float and the integral n and
    m to int (raising for a fractional one), and rejects a probe whose
    deficit q^m lies below PROBE_DEFICIT_FLOOR. symbol() and problem()
    build the Blaschke product and the interpolation problem it determines.
    """

    xi: CirclePoint
    q: float
    n: int
    m: int

    def __post_init__(self):
        if not isinstance(self.xi, CirclePoint):
            object.__setattr__(self, "xi", CirclePoint(as_complex(self.xi)))
        object.__setattr__(self, "q", float(self.q))
        object.__setattr__(self, "n", as_int(self.n, "degree n"))
        object.__setattr__(self, "m", as_int(self.m, "probe index m"))
        if not (0.0 < self.q < 1.0):
            raise InvalidConfiguration(f"q must be in (0, 1), got {self.q!r}")
        if self.n < 1:
            raise InvalidConfiguration(f"degree n must be positive, got {self.n!r}")
        if self.m <= self.n:
            raise InvalidConfiguration(f"probe index m must exceed n, got m={self.m!r}, n={self.n!r}")
        if self.probe_deficit < PROBE_DEFICIT_FLOOR:
            raise InvalidConfiguration(
                f"probe deficit q^m = {self.probe_deficit!r} is below the representable floor"
            )

    @property
    def deficits(self) -> np.ndarray:
        """Radius deficits q^1..q^n of the zeros."""
        return self.q ** np.arange(1, self.n + 1, dtype=float)

    @property
    def probe_deficit(self) -> float:
        return float(self.q ** self.m)

    def zeros(self) -> np.ndarray:
        return _ray_zeros(self.xi.value, self.q, self.n)

    def probe(self) -> complex:
        return (1.0 - self.probe_deficit) * self.xi.value

    def symbol(self) -> BlaschkeProduct:
        return BlaschkeProduct(zeros=tuple(self.zeros()))

    def problem(self) -> InterpolationProblem:
        """Targets y_k = B'(x_k) (|x_k|^2 - 1) xi at the zeros and y_m = B(x_m)
        at the probe, both reduced to products over radius deficits. The
        Schwarz-Pick inequality keeps every |y_k| at most 1.
        """
        xi_c = self.xi.value
        d = self.deficits.astype(np.longdouble)
        dm = np.longdouble(self.q) ** self.m

        targets = []
        for k in range(self.n):
            prod = np.clongdouble(1.0)
            for j in range(self.n):
                if j != k:
                    prod *= (d[j] - d[k]) / (d[j] + d[k] - d[j] * d[k])
            targets.append(complex(-(xi_c**self.n) * complex(prod)))
        prod = np.clongdouble(1.0)
        for j in range(self.n):
            prod *= (d[j] - dm) / (d[j] + dm - d[j] * dm)
        targets.append(complex((xi_c**self.n) * complex(prod)))

        nodes = tuple(self.zeros()) + (self.probe(),)
        return InterpolationProblem(nodes=nodes, targets=tuple(targets))

    def to_dict(self) -> dict:
        return {
            "xi": [self.xi.value.real, self.xi.value.imag],
            "q": self.q,
            "n": self.n,
            "m": self.m,
            # a radius floor whose set E_xi holds every zero; nothing reads it
            "eps": 0.5 * (1.0 - self.q),
        }


def ideal_limit(n: int, q: float) -> float:
    """Closed form 1 + 2n - sum_{k=1..n} q^k, the m -> infinity value of V."""
    return 1.0 + 2.0 * n - sum(q**k for k in range(1, n + 1))


def closed_form_functional(config: RayConfiguration) -> float:
    """V computed from the deficits alone: 1 + sum_k d_k (2 - d_k) / (d_k - d_m)."""
    d = config.deficits.astype(np.longdouble)
    dm = np.longdouble(config.q) ** config.m
    return float(1.0 + np.sum(d * (2.0 - d) / (d - dm)))


@dataclass(frozen=True)
class LowerBoundCertificate:
    """A finite, checkable witness for a lower bound on the operator norm."""

    configuration: RayConfiguration
    functional_value: complex
    certified: float
    ideal_limit: float
    level: float
    warnings: tuple = field(default=())

    def to_dict(self) -> dict:
        return {
            "configuration": self.configuration.to_dict(),
            "functional_value": [self.functional_value.real, self.functional_value.imag],
            "interpolant_norm": self.level,
            "certified": self.certified,
            "ideal_limit": self.ideal_limit,
            "level": self.level,
            "warnings": list(self.warnings),
        }


def certify_lower_bound(config: RayConfiguration) -> LowerBoundCertificate:
    """Solve the interpolation problem and evaluate the certified quotient.

    The divisor is the construction level, which the Schur recursion
    guarantees is at least sup |h0|; a sampled sup-norm would only bound
    sup |h0| from below and could certify too much. So construction takes no
    boundary sample here (sample=False). The level is reported as the
    interpolant norm.
    """
    problem = config.problem()
    mu_min = minimal_level(problem)
    warnings: list[str] = []
    cert = None
    last: Exception | None = None
    for slack in SLACK_LADDER:
        try:
            cert = construct_interpolant(problem, mu_min * (1.0 + slack), sample=False)
            break
        except (NotStrictlyFeasible, NumericalBreakdown) as exc:
            warnings.append(f"construction at slack {slack:g} failed: {exc}")
            last = exc
    if cert is None:
        raise NumericalBreakdown(
            f"interpolant construction failed at every slack level: {last}"
        )
    warnings.extend(cert.warnings)

    V = apply_toeplitz_residue(config.symbol(), cert.interpolant, config.probe())
    v_closed = closed_form_functional(config)
    if abs(V - v_closed) > 1e-7 * (1.0 + abs(V)):
        warnings.append(
            f"residue functional {V!r} deviates from the closed form {v_closed!r}"
        )

    return LowerBoundCertificate(
        configuration=config,
        functional_value=V,
        certified=float(abs(V) / cert.level),
        ideal_limit=ideal_limit(config.n, config.q),
        level=cert.level,
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class NormBracket:
    """[lower, upper] for the operator norm with provenance: the lower is
    certified, the upper is an estimate (see lemma1_upper_bound)."""

    lower: float
    upper: float
    lower_provenance: object
    upper_provenance: str


def bracket_norm(
    symbol: BlaschkeProduct | RayConfiguration,
    m_offsets: tuple = DEFAULT_M_OFFSETS,
    lambda_spec: QuadratureSpec = DEFAULT_LAMBDA_SPEC,
) -> NormBracket:
    """Upper bound from the oscillation functional, lower from the best certificate.

    A RayConfiguration brackets its own symbol: the lower side is the best
    certificate over the probe indices m and n + m_offsets, which is the
    convergence study of that one q; probes below the deficit floor are left
    out, and the configured m is never below it. Any other Blaschke product
    gets the lower bound 1: multiplication by an inner symbol is an isometry
    of H-infinity that the operator inverts, so the norm is never below 1.
    Degree 0 gives the degenerate bracket [1, 1].
    """
    upper_prov = "1 + oscillation functional + quadrature error"
    if isinstance(symbol, RayConfiguration):
        offsets = sorted({symbol.m - symbol.n, *m_offsets})
        study = omega_convergence_study(symbol.n, symbol.xi, (symbol.q,), offsets, lambda_spec)
        return replace(study.best, upper_provenance=upper_prov)
    if symbol.degree == 0:
        return NormBracket(
            lower=1.0,
            upper=1.0,
            lower_provenance="identity: the operator with constant symbol reproduces its argument",
            upper_provenance="constant symbol: oscillation functional vanishes",
        )
    return NormBracket(
        lower=1.0,
        upper=lemma1_upper_bound(symbol, lambda_spec),
        lower_provenance="inner-symbol identity lower bound",
        upper_provenance=upper_prov,
    )


@dataclass(frozen=True)
class StudyRow:
    """One (q, m) cell of a convergence study."""

    n: int
    xi: complex
    q: float
    m: int
    lower: float
    upper: float
    ideal_limit: float
    interp_norm: float
    warnings: tuple
    certificate: LowerBoundCertificate | None = None


@dataclass(frozen=True)
class StudyResult:
    rows: tuple
    best: NormBracket


def omega_convergence_study(
    n: int,
    xi,
    q_schedule: tuple = DEFAULT_Q_SCHEDULE,
    m_offsets: tuple = DEFAULT_M_OFFSETS,
    lambda_spec: QuadratureSpec = DEFAULT_LAMBDA_SPEC,
    threads: int = 1,
) -> StudyResult:
    """Sweep the (q, m) schedule; emit one row per cell, best bracket overall.

    Rows whose probe deficit cannot be represented are emitted with NaN bounds
    and a warning marker instead of being dropped; a schedule with no
    representable cell, or with a q or an offset given twice, raises
    InvalidConfiguration before any upper bound is computed. The upper bound
    depends only on q, so it is computed once per schedule entry. Rows are
    independent and may run on a thread pool; output order follows the
    schedule, not completion.
    """
    if not q_schedule or not m_offsets:
        raise InvalidConfiguration("schedules must be nonempty")
    if not all(0.0 < q < 1.0 for q in q_schedule):
        raise InvalidConfiguration(f"every q must be in (0, 1), got {q_schedule!r}")
    n = as_int(n, "degree n")
    m_offsets = [as_int(off, "m offset") for off in m_offsets]
    for name, entries in (("q", [float(q) for q in q_schedule]), ("m offset", m_offsets)):
        repeated = [e for k, e in enumerate(entries) if e in entries[:k]]
        if repeated:
            raise InvalidConfiguration(f"{name} {repeated[0]!r} appears more than once in its schedule")
    xi_p = xi if isinstance(xi, CirclePoint) else CirclePoint(as_complex(xi))

    # every cell is checked, and a schedule with no representable cell
    # rejected, before the first upper bound is computed
    cells = [(q, n + off) for q in q_schedule for off in m_offsets]
    configs = {
        (q, m): RayConfiguration(xi=xi_p, q=q, n=n, m=m)
        for q, m in cells
        if float(q) ** m >= PROBE_DEFICIT_FLOOR
    }
    if not configs:
        raise InvalidConfiguration("no schedule cell survived the conditioning guards")
    uppers = {
        q: lemma1_upper_bound(BlaschkeProduct(zeros=tuple(_ray_zeros(xi_p.value, q, n))), lambda_spec)
        for q in q_schedule
    }

    def run_cell(cell):
        q, m = cell
        if cell in configs:
            cert = certify_lower_bound(configs[cell])
            lower, level, warnings = cert.certified, cert.level, cert.warnings
        else:
            cert, lower, level = None, math.nan, math.nan
            warnings = ("probe deficit below representable floor; row skipped",)
        return StudyRow(
            n=n,
            xi=xi_p.value,
            q=float(q),
            m=m,
            lower=lower,
            upper=uppers[q],
            ideal_limit=ideal_limit(n, float(q)),
            interp_norm=level,
            warnings=warnings,
            certificate=cert,
        )

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = tuple(pool.map(run_cell, cells))
    else:
        rows = tuple(run_cell(c) for c in cells)

    best_row = max((r for r in rows if not math.isnan(r.lower)), key=lambda r: r.lower)
    best = NormBracket(
        lower=best_row.lower,
        upper=max(r.upper for r in rows),
        lower_provenance=best_row.certificate,
        upper_provenance="largest per-symbol upper bound across the schedule",
    )
    return StudyResult(rows=rows, best=best)


def study_to_csv(result: StudyResult) -> str:
    """Deterministic CSV: 17 significant digits, newline rows, semicolon warnings."""
    lines = ["n,xi_re,xi_im,q,m,lower,upper,ideal_limit,interp_norm,warnings"]
    for r in result.rows:
        fields = [
            str(r.n),
            _fmt(r.xi.real),
            _fmt(r.xi.imag),
            _fmt(r.q),
            str(r.m),
            _fmt(r.lower),
            _fmt(r.upper),
            _fmt(r.ideal_limit),
            _fmt(r.interp_norm),
            '"' + ";".join(r.warnings).replace('"', "'") + '"' if r.warnings else "",
        ]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def study_to_json(result: StudyResult) -> str:
    """JSON variant with full certificates attached to each computed row."""
    payload = {
        "rows": [
            {
                "n": r.n,
                "xi": [r.xi.real, r.xi.imag],
                "q": r.q,
                "m": r.m,
                "lower": None if math.isnan(r.lower) else r.lower,
                "upper": r.upper,
                "ideal_limit": r.ideal_limit,
                "interp_norm": None if math.isnan(r.interp_norm) else r.interp_norm,
                "warnings": list(r.warnings),
                "certificate": r.certificate.to_dict() if r.certificate else None,
            }
            for r in result.rows
        ],
        "best": {
            "lower": result.best.lower,
            "upper": result.best.upper,
        },
    }
    return json.dumps(payload, indent=2) + "\n"


def _fmt(x: float) -> str:
    """17 significant digits, or "nan": the one float format of every output."""
    return "nan" if math.isnan(x) else format(float(x), ".17g")

