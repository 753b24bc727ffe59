"""Command line front end.

Subcommands
    lambda       oscillation functional of a Blaschke product
    apply        one Toeplitz application T_B h at a point
    pick         minimal interpolation level, optionally a constructed witness
    bracket      certified [lower, upper] for the operator norm of one symbol
    omega-study  (q, m) sweep reproducing the extremal growth 1 + 2n

Complex values on the command line are written "re,im" (a bare real is also
accepted); files use JSON with [re, im] pairs. All floats are emitted with 17
significant digits and rows end in a plain newline, so repeated runs with the
same inputs are byte-identical. Exit status: 0 success, 1 numeric failure,
2 invalid input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field

from .circle_quad import QuadratureSpec, lambda_functional
from .disk_core import BlaschkeProduct, CirclePoint
from .errors import (
    InvalidConfiguration,
    NotStrictlyFeasible,
    NumericalBreakdown,
    PointCollision,
    RepeatedZero,
    ToleranceNotMet,
)
from .omega_bounds import (
    RayConfiguration,
    bracket_norm,
    build_configuration,
    default_eps,
    omega_convergence_study,
    study_to_csv,
    study_to_json,
)
from .pick_interp import InterpolationProblem, construct_interpolant, minimal_level
from .toeplitz_op import RationalFunction, apply_toeplitz_contour, apply_toeplitz_residue


@dataclass
class RunConfig:
    """Parsed invocation; one field per flag, unused fields stay at defaults."""

    command: str
    zeros: tuple = ()
    zeros_file: str | None = None
    h: str = "1"
    z: complex = 0j
    method: str = "residue"
    problem_file: str | None = None
    level: float | None = None
    construct: bool = False
    xi: complex = 1.0 + 0j
    q: float | None = None
    n: int | None = None
    m: int | None = None
    eps: float | None = None
    q_schedule: tuple = (0.3, 0.2, 0.1, 0.05)
    m_offsets: tuple = (2, 4, 8, 16)
    tolerance: float = 1e-8
    rotation_grid: int = 256
    out: str | None = None
    as_json: bool = False
    threads: int = field(default_factory=lambda: int(os.environ.get("TOEPLITZ_BOUNDS_THREADS", "1")))


def _fmt(x: float) -> str:
    return "nan" if math.isnan(x) else format(float(x), ".17g")


def parse_complex(token: str) -> complex:
    parts = token.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise InvalidConfiguration(f"expected a complex value as 're,im', got {token!r}")


def parse_zeros(tokens) -> tuple:
    return tuple(parse_complex(t) for t in tokens)


def _load_zeros_file(path: str) -> tuple:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data = data["zeros"]
    return tuple(complex(re, im) for re, im in data)


def zeros_digest(zeros) -> str:
    """Stable 12-hex-digit identifier of the zero list (order preserved)."""
    canonical = json.dumps(
        [[z.real, z.imag] for z in zeros], separators=(",", ":")
    ).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()[:12]


def _parse_h(text: str):
    """Argument function: '1' (or any single real) is a constant, otherwise
    space-free comma tokens separated by ';' give polynomial coefficients."""
    text = text.strip()
    tokens = text.split(";") if ";" in text else text.split()
    coeffs = [parse_complex(t) for t in tokens]
    if len(coeffs) == 1:
        return coeffs[0]
    return RationalFunction(numerator=tuple(coeffs))


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _format_value(v: complex) -> str:
    if abs(v.imag) <= 1e-12 * (1.0 + abs(v.real)):
        return _fmt(v.real)
    return f"{_fmt(v.real)},{_fmt(v.imag)}"


def _resolve_zeros(config: RunConfig) -> tuple:
    if config.zeros_file is not None:
        return _load_zeros_file(config.zeros_file)
    return config.zeros


def _cmd_lambda(config: RunConfig) -> int:
    zeros = _resolve_zeros(config)
    B = BlaschkeProduct(zeros=zeros)
    spec = QuadratureSpec(tolerance=config.tolerance)
    result = lambda_functional(B, spec=spec, rotation_grid=config.rotation_grid)
    if config.out is None:
        _emit(_fmt(result.value) + "\n", None)
    else:
        eta_angle = math.atan2(result.eta.value.imag, result.eta.value.real)
        lines = [
            "degree,zeros_digest,lambda,eta_argmax,error",
            ",".join(
                [
                    str(B.degree),
                    zeros_digest(zeros),
                    _fmt(result.value),
                    _fmt(eta_angle),
                    _fmt(result.error_estimate),
                ]
            ),
        ]
        _emit("\n".join(lines) + "\n", config.out)
    return 0


def _cmd_apply(config: RunConfig) -> int:
    zeros = _resolve_zeros(config)
    B = BlaschkeProduct(zeros=zeros)
    h = _parse_h(config.h)
    if config.method == "residue":
        value = apply_toeplitz_residue(B, h, config.z)
    else:
        spec = QuadratureSpec(tolerance=config.tolerance)
        value, _ = apply_toeplitz_contour(B, h, config.z, spec=spec)
    _emit(_format_value(value) + "\n", config.out)
    return 0


def _cmd_pick(config: RunConfig) -> int:
    if config.problem_file is None:
        raise InvalidConfiguration("pick requires --problem-file")
    with open(config.problem_file, encoding="utf-8") as fh:
        problem = InterpolationProblem.from_dict(json.load(fh))
    mu = minimal_level(problem)
    if not config.construct:
        _emit(_fmt(mu) + "\n", config.out)
        return 0
    level = config.level if config.level is not None else mu * (1.0 + 1e-6)
    cert = construct_interpolant(problem, level)
    payload = cert.to_dict()
    payload["minimal_level"] = mu
    _emit(json.dumps(payload, indent=2) + "\n", config.out)
    return 0


def _make_ray(config: RunConfig) -> RayConfiguration:
    if config.q is None or config.n is None or config.m is None:
        raise InvalidConfiguration("a ray configuration needs --q, --n and --m")
    eps = config.eps if config.eps is not None else default_eps(config.q)
    return RayConfiguration(
        xi=CirclePoint(config.xi), q=config.q, n=config.n, m=config.m, eps=eps
    )


def _cmd_bracket(config: RunConfig) -> int:
    spec = QuadratureSpec(tolerance=config.tolerance)
    if config.q is not None:
        ray = _make_ray(config)
        _, symbol, _ = build_configuration(ray.xi, ray.q, ray.n, ray.m, ray.eps)
        bracket = bracket_norm(
            symbol,
            ray,
            m_offsets=config.m_offsets,
            lambda_spec=spec,
            rotation_grid=config.rotation_grid,
        )
    else:
        symbol = BlaschkeProduct(zeros=_resolve_zeros(config))
        bracket = bracket_norm(
            symbol, None, lambda_spec=spec, rotation_grid=config.rotation_grid
        )
    if config.as_json:
        prov = bracket.lower_provenance
        payload = {
            "lower": bracket.lower,
            "upper": bracket.upper,
            "lower_provenance": prov.to_dict() if hasattr(prov, "to_dict") else str(prov),
            "upper_provenance": bracket.upper_provenance,
        }
        _emit(json.dumps(payload, indent=2) + "\n", config.out)
    else:
        _emit(f"{_fmt(bracket.lower)} {_fmt(bracket.upper)}\n", config.out)
    return 0


def _cmd_omega_study(config: RunConfig) -> int:
    if config.n is None:
        raise InvalidConfiguration("omega-study requires --n")
    spec = QuadratureSpec(tolerance=config.tolerance)
    result = omega_convergence_study(
        n=config.n,
        xi=CirclePoint(config.xi),
        q_schedule=config.q_schedule,
        m_offsets=config.m_offsets,
        eps=config.eps,
        lambda_spec=spec,
        rotation_grid=config.rotation_grid,
        threads=config.threads,
    )
    text = study_to_json(result) if config.as_json else study_to_csv(result)
    _emit(text, config.out)
    return 0


_COMMANDS = {
    "lambda": _cmd_lambda,
    "apply": _cmd_apply,
    "pick": _cmd_pick,
    "bracket": _cmd_bracket,
    "omega-study": _cmd_omega_study,
}


def run(config: RunConfig) -> int:
    """Execute one parsed invocation; returns the process exit status."""
    try:
        return _COMMANDS[config.command](config)
    except (InvalidConfiguration, RepeatedZero, PointCollision) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ToleranceNotMet, NumericalBreakdown, NotStrictlyFeasible) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _float_list(text: str) -> tuple:
    return tuple(float(t) for t in text.split(",") if t)


def _int_list(text: str) -> tuple:
    return tuple(int(t) for t in text.split(",") if t)


_UNSIGNED = r"(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?"
# "-0.25" or "-0.25,0.1": a value, not an option (no option starts with a digit)
_NEGATIVE_VALUE = re.compile(rf"^-{_UNSIGNED}(,[-+]?{_UNSIGNED})?$")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads a complex token with a negative real part,
    such as "-0.25,0.1", as a value the way argparse already reads "-0.25"."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_VALUE


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="toeplitz-bounds",
        description="Certified bounds for Toeplitz operators with Blaschke symbols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--tolerance", type=float, default=1e-8)
        p.add_argument("--rotation-grid", type=int, default=256)
        p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("lambda", help="oscillation functional of a Blaschke product")
    p.add_argument("--zeros", nargs="*", default=[], help="zeros as re,im tokens")
    p.add_argument("--zeros-file", type=str, default=None, help="JSON file of [re,im] pairs")
    add_common(p)

    p = sub.add_parser("apply", help="apply the operator to one argument at one point")
    p.add_argument("--zeros", nargs="*", default=[], help="symbol zeros as re,im tokens")
    p.add_argument("--zeros-file", type=str, default=None)
    p.add_argument("--h", type=str, default="1", help="constant or polynomial coefficients")
    p.add_argument("--z", type=str, default="0", help="evaluation point as re,im")
    p.add_argument("--method", choices=("residue", "contour"), default="residue")
    add_common(p)

    p = sub.add_parser("pick", help="minimal interpolation level, optional witness")
    p.add_argument("--problem-file", type=str, required=True)
    p.add_argument("--construct", action="store_true")
    p.add_argument("--level", type=float, default=None)
    add_common(p)

    p = sub.add_parser("bracket", help="certified [lower, upper] for one symbol")
    p.add_argument("--zeros", nargs="*", default=[])
    p.add_argument("--zeros-file", type=str, default=None)
    p.add_argument("--xi", type=str, default="1")
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--m-offsets", type=str, default="2,4,8,16")
    p.add_argument("--json", action="store_true")
    add_common(p)

    p = sub.add_parser("omega-study", help="(q, m) sweep of certified bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--xi", type=str, default="1")
    p.add_argument("--q-schedule", type=str, default="0.3,0.2,0.1,0.05")
    p.add_argument("--m-offsets", type=str, default="2,4,8,16")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--json", action="store_true")
    add_common(p)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command)
    config.tolerance = args.tolerance
    config.rotation_grid = args.rotation_grid
    config.out = args.out
    if hasattr(args, "zeros"):
        config.zeros = parse_zeros(args.zeros)
        config.zeros_file = args.zeros_file
    if hasattr(args, "h"):
        config.h = args.h
        config.z = parse_complex(args.z)
        config.method = args.method
    if hasattr(args, "problem_file"):
        config.problem_file = args.problem_file
        config.construct = args.construct
        config.level = args.level
    if hasattr(args, "xi"):
        config.xi = parse_complex(args.xi)
    if hasattr(args, "q") and args.q is not None:
        config.q = args.q
    if hasattr(args, "n") and args.n is not None:
        config.n = args.n
    if hasattr(args, "m") and args.m is not None:
        config.m = args.m
    if hasattr(args, "eps") and args.eps is not None:
        config.eps = args.eps
    if hasattr(args, "q_schedule"):
        config.q_schedule = _float_list(args.q_schedule)
    if hasattr(args, "m_offsets"):
        config.m_offsets = _int_list(args.m_offsets)
    if hasattr(args, "json"):
        config.as_json = args.json
    return config


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = config_from_args(args)
    except InvalidConfiguration as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
