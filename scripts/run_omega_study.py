"""Run the three small-degree convergence studies and print a summary table.

Writes one CSV per degree next to --out-dir and prints, for each study, the
best certified bracket against the ideal limit 1 + 2n.
"""

import argparse
import pathlib
import sys
import time

from toeplitz_bounds import DEFAULT_LAMBDA_SPEC, QuadratureSpec, omega_convergence_study, study_to_csv
from toeplitz_bounds.omega_bounds import DEFAULT_M_OFFSETS, DEFAULT_Q_SCHEDULE

# Calibrated schedules: q small enough to approach 1 + 2n, m far enough out
# to exhaust the probe before the deficit floor; n = 1 runs the default one.
PLANS = {
    1: (DEFAULT_Q_SCHEDULE, DEFAULT_M_OFFSETS),
    2: ((0.01, 0.005, 0.002), (1, 2)),
    3: ((0.005, 0.002, 0.001), (1,)),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--degrees", type=str, default="1,2,3", help="comma separated degrees to run")
    parser.add_argument("--xi", type=complex, default=1.0, help="boundary direction of the zero ray")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_LAMBDA_SPEC.tolerance)
    parser.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("."))
    args = parser.parse_args(argv)

    spec = QuadratureSpec(tolerance=args.tolerance)
    for n in (int(tok) for tok in args.degrees.split(",")):
        if n not in PLANS:
            print(f"degree {n}: no calibrated schedule, skipping", file=sys.stderr)
            continue
        qs, offsets = PLANS[n]
        start = time.perf_counter()
        result = omega_convergence_study(n, args.xi, q_schedule=qs, m_offsets=offsets, lambda_spec=spec)
        elapsed = time.perf_counter() - start
        target = args.out_dir / f"omega_study_n{n}.csv"
        target.write_text(study_to_csv(result))
        print(
            f"n={n}: bracket [{result.best.lower:.6f}, {result.best.upper:.6f}]"
            f" vs limit {1 + 2 * n}, {len(result.rows)} rows,"
            f" {elapsed:.1f}s -> {target}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
