"""Command line front end.

Subcommands
    lambda       oscillation functional of a Blaschke product
    apply        one Toeplitz application T_B h at a point
    pick         minimal interpolation level, optionally a constructed witness
    bracket      [lower, upper] for the operator norm of one symbol: certified
                 lower, estimated upper
    omega-study  (q, m) sweep reproducing the extremal growth 1 + 2n

Complex values on the command line are written "re,im" (a bare real is also
accepted); files use JSON with [re, im] pairs. All floats are emitted with 17
significant digits and rows end in a plain newline, so repeated runs with the
same inputs are byte-identical. Exit status: 0 success, 1 numeric failure,
2 invalid input.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import math
import re
import sys

import numpy as np

from .circle_quad import QuadratureSpec, lambda_functional
from .disk_core import BlaschkeProduct, CirclePoint, complex_pairs
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
    _fmt,
    bracket_norm,
    omega_convergence_study,
    study_to_csv,
    study_to_json,
)
from .pick_interp import InterpolationProblem, construct_interpolant, minimal_level
from .toeplitz_op import apply_toeplitz_contour, apply_toeplitz_residue


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


def _parse_list(text: str, kind) -> tuple:
    """Comma-separated values of type kind (float or int); empty items are skipped."""
    values = []
    for token in text.split(","):
        if not token:
            continue
        try:
            values.append(kind(token))
        except ValueError:
            raise InvalidConfiguration(
                f"expected a comma-separated list of {kind.__name__} values, got {token!r}"
            ) from None
    return tuple(values)


def _load_zeros_file(path: str) -> tuple:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data = data["zeros"]
    return complex_pairs(data)


def zeros_digest(zeros) -> str:
    """Stable 12-hex-digit identifier of the zero list (order preserved)."""
    canonical = json.dumps(
        [[z.real, z.imag] for z in zeros], separators=(",", ":")
    ).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()[:12]


def _parse_h(text: str):
    """Argument function: '1' (or any single real) is a constant, otherwise
    space-free comma tokens separated by ';' give polynomial coefficients,
    lowest degree first, evaluated by Horner's rule."""
    text = text.strip()
    tokens = text.split(";") if ";" in text else text.split()
    coeffs = [parse_complex(t) for t in tokens]
    if not all(cmath.isfinite(c) for c in coeffs):
        raise InvalidConfiguration(f"coefficients of --h must be finite, got {text!r}")
    if len(coeffs) == 1:
        return coeffs[0]

    def polynomial(z):
        out = np.zeros_like(np.asarray(z) * (1 + 0j))
        for c in reversed(coeffs):
            out = out * z + c
        return out

    return polynomial


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


def _resolve_zeros(args) -> tuple:
    if args.zeros_file is None:
        return parse_zeros(args.zeros)
    if args.zeros:
        raise InvalidConfiguration("--zeros and --zeros-file cannot be combined")
    return _load_zeros_file(args.zeros_file)


def _cmd_lambda(args) -> int:
    zeros = _resolve_zeros(args)
    B = BlaschkeProduct(zeros=zeros)
    spec = QuadratureSpec(tolerance=args.tolerance)
    result = lambda_functional(B, spec=spec)
    if args.out is None:
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
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_apply(args) -> int:
    if args.tolerance is not None and args.method != "contour":
        raise InvalidConfiguration("--tolerance needs --method contour")
    B = BlaschkeProduct(zeros=_resolve_zeros(args))
    h = _parse_h(args.h)
    z = parse_complex(args.z)
    if args.method == "residue":
        value = apply_toeplitz_residue(B, h, z)
    else:
        spec = QuadratureSpec(tolerance=1e-8 if args.tolerance is None else args.tolerance)
        value, _ = apply_toeplitz_contour(B, h, z, spec=spec)
    _emit(_format_value(value) + "\n", args.out)
    return 0


def _cmd_pick(args) -> int:
    if args.level is not None and not args.construct:
        raise InvalidConfiguration("--level needs --construct")
    with open(args.problem_file, encoding="utf-8") as fh:
        problem = InterpolationProblem.from_dict(json.load(fh))
    mu = minimal_level(problem)
    if not args.construct:
        _emit(_fmt(mu) + "\n", args.out)
        return 0
    if args.level is None and not any(problem.targets):
        raise InvalidConfiguration("every target is 0, so the minimal level is 0; --level builds the zero witness")
    level = args.level if args.level is not None else mu * (1.0 + 1e-6)
    cert = construct_interpolant(problem, level)
    payload = cert.to_dict()
    payload["minimal_level"] = mu
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _cmd_bracket(args) -> int:
    spec = QuadratureSpec(tolerance=args.tolerance)
    if args.q is not None:
        if args.zeros or args.zeros_file is not None:
            raise InvalidConfiguration("--zeros and --zeros-file cannot be combined with --q")
        if args.n is None or args.m is None:
            raise InvalidConfiguration("a ray configuration needs --q, --n and --m")
        xi = parse_complex("1" if args.xi is None else args.xi)
        m_offsets = _parse_list("2,4,8,16" if args.m_offsets is None else args.m_offsets, int)
        ray = RayConfiguration(xi=xi, q=args.q, n=args.n, m=args.m, eps=args.eps)
        bracket = bracket_norm(ray, m_offsets, spec)
    else:
        if any(v is not None for v in (args.n, args.m, args.eps, args.xi, args.m_offsets)):
            raise InvalidConfiguration("--n, --m, --eps, --xi and --m-offsets describe a ray and need --q")
        symbol = BlaschkeProduct(zeros=_resolve_zeros(args))
        bracket = bracket_norm(symbol, lambda_spec=spec)
    if args.json:
        prov = bracket.lower_provenance
        payload = {
            "lower": bracket.lower,
            "upper": bracket.upper,
            "lower_provenance": prov.to_dict() if hasattr(prov, "to_dict") else str(prov),
            "upper_provenance": bracket.upper_provenance,
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _emit(f"{_fmt(bracket.lower)} {_fmt(bracket.upper)}\n", args.out)
    return 0


def _cmd_omega_study(args) -> int:
    spec = QuadratureSpec(tolerance=args.tolerance)
    result = omega_convergence_study(
        n=args.n,
        xi=CirclePoint(parse_complex(args.xi)),
        q_schedule=_parse_list(args.q_schedule, float),
        m_offsets=_parse_list(args.m_offsets, int),
        eps=args.eps,
        lambda_spec=spec,
    )
    text = study_to_json(result) if args.json else study_to_csv(result)
    _emit(text, args.out)
    return 0


_UNSIGNED = r"(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?"
_SIGNED = rf"[-+]?{_UNSIGNED}"
# "-0.25", "-0.25,0.1" or "-0.5;1;0,2": a value, not an option (no option
# starts with a digit)
_NEGATIVE_VALUE = re.compile(rf"^-{_UNSIGNED}(,{_SIGNED})?(;{_SIGNED}(,{_SIGNED})?)*$")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads a complex token with a negative real part,
    such as "-0.25,0.1", or a ';'-separated list of them that starts with
    one, such as --h's "-0.5;1", as a value the way argparse already reads
    "-0.25"."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_VALUE


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="toeplitz-bounds",
        description="Certified bounds for Toeplitz operators with Blaschke symbols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, tolerance=True):
        if tolerance:
            p.add_argument("--tolerance", type=float, default=1e-8)
        p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("lambda", help="oscillation functional of a Blaschke product")
    p.set_defaults(func=_cmd_lambda)
    p.add_argument("--zeros", nargs="*", default=[], help="zeros as re,im tokens")
    p.add_argument("--zeros-file", type=str, default=None, help="JSON file of [re,im] pairs")
    add_common(p)

    p = sub.add_parser("apply", help="apply the operator to one argument at one point")
    p.set_defaults(func=_cmd_apply)
    p.add_argument("--zeros", nargs="*", default=[], help="symbol zeros as re,im tokens")
    p.add_argument("--zeros-file", type=str, default=None)
    p.add_argument("--h", type=str, default="1", help="constant or polynomial coefficients")
    p.add_argument("--z", type=str, default="0", help="evaluation point as re,im")
    p.add_argument("--method", choices=("residue", "contour"), default="residue")
    p.add_argument("--tolerance", type=float, default=None, help="contour route only; 1e-8 if not given")
    add_common(p, tolerance=False)

    p = sub.add_parser("pick", help="minimal interpolation level, optional witness")
    p.set_defaults(func=_cmd_pick)
    p.add_argument("--problem-file", type=str, required=True)
    p.add_argument("--construct", action="store_true")
    p.add_argument("--level", type=float, default=None)
    add_common(p, tolerance=False)

    p = sub.add_parser("bracket", help="certified [lower, upper] for one symbol")
    p.set_defaults(func=_cmd_bracket)
    p.add_argument("--zeros", nargs="*", default=[])
    p.add_argument("--zeros-file", type=str, default=None)
    p.add_argument("--xi", type=str, default=None, help='ray direction, "1" if not given')
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--m-offsets", type=str, default=None, help='"2,4,8,16" if not given')
    p.add_argument("--json", action="store_true")
    add_common(p)

    p = sub.add_parser("omega-study", help="(q, m) sweep of certified bounds")
    p.set_defaults(func=_cmd_omega_study)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--xi", type=str, default="1")
    p.add_argument("--q-schedule", type=str, default="0.3,0.2,0.1,0.05")
    p.add_argument("--m-offsets", type=str, default="2,4,8,16")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--json", action="store_true")
    add_common(p)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidConfiguration, RepeatedZero, PointCollision) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ToleranceNotMet, NumericalBreakdown, NotStrictlyFeasible) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
