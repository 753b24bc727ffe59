"""Benchmark of the toeplitz-bounds bracket pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload studies --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --compare OLD.json NEW.json

Workloads: studies, lambda_panel, pick_panel (see perfbench/README.md). With
--trace 0 the run measures end-to-end metrics for --seconds seconds in one
closed loop (one caller, one thread, next item after the previous returns),
with times scaled to a reference machine speed (SpeedProbe).
With --trace 1 it runs a fixed number of rounds once untraced and once with
spans recorded at the module boundaries, and reports per-layer metrics. The
last line of stdout is the result as one JSON object; a result file with the
machine record goes to perfbench/out/. A failed correctness check
makes the exit status 1.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# Single-threaded numerics: no BLAS thread pool in this process or its children.
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
SETUP_REPEATS = 5
IMPORT_PROFILE_REPEATS = 3
# A typical speed-probe time on a 2-core Xeon at 2.1 GHz (5.5-10 ms seen); a
# unit choice, so it must stay fixed for times to compare across commits.
REFERENCE_S = 0.008
SAMPLE_EVERY_S = 0.25
WINDOW_S = 1.0
# Rough seconds per round on a 2-core Xeon; sizes the fixed traced pass so a
# traced run takes about --seconds there. The count depends on --seconds only.
NOMINAL_ROUND_S = {"studies": 1.8, "lambda_panel": 1.6, "pick_panel": 0.55}

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_library():
    """Import toeplitz_bounds from this checkout's src/, never from elsewhere."""
    if not (SRC / "toeplitz_bounds" / "__init__.py").is_file():
        fail(f"no library source at {SRC.relative_to(ROOT)}/toeplitz_bounds")
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import toeplitz_bounds

    if Path(toeplitz_bounds.__file__).resolve().parent != SRC / "toeplitz_bounds":
        fail(f"imported toeplitz_bounds from {toeplitz_bounds.__file__}, not from this checkout")


def machine_record() -> dict:
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "platform": platform.platform(),
    }


def run_setup_child(args, importtime: bool):
    """One fresh interpreter that imports the library and builds round 0's inputs.

    Returns its wall time and its stderr (the import profile with importtime).
    """
    command = [sys.executable]
    if importtime:
        command += ["-X", "importtime"]
    command += [str(BENCH_DIR / "run.py"), "--setup-only", "--workload", args.workload, "--seed", str(args.seed)]
    start = perf_counter()
    proc = subprocess.run(command, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120)
    wall = perf_counter() - start
    if proc.returncode != 0:
        fail(f"set-up child failed with status {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return wall, proc.stderr


class SpeedProbe:
    """Samples of the machine's current speed from a fixed numpy and Python kernel.

    On a shared host the same work can take twice as long from one minute to
    the next, and the kernel slows with it. Multiplying an interval's time by
    REFERENCE_S over the kernel's mean time in the samples around it (within
    WINDOW_S) gives the time at the reference speed.
    """

    def __init__(self):
        import numpy as np

        self.mids: list[float] = []
        self.times: list[float] = []
        self._last = perf_counter()
        self._angles = np.linspace(0.0, 1.0, 4096)
        m = np.random.default_rng(0).normal(size=(6, 6))
        self._matrix = m + m.T
        self.sample()  # the first call pays one-off costs; keep it out
        self.mids.clear()
        self.times.clear()

    def sample(self):
        import numpy as np

        start = perf_counter()
        acc = 0.0
        for k in range(30):
            acc += float(np.abs(np.exp(1j * (self._angles + k)) - 1.0).sum())
        for k in range(15000):
            acc += math.sin(k * 1e-3)
        for k in range(150):
            acc += float(np.linalg.eigvalsh(self._matrix + k)[0])
        self._last = perf_counter()
        self.mids.append(0.5 * (start + self._last))
        self.times.append(self._last - start)

    def sample_if_due(self):
        """One sample per SAMPLE_EVERY_S since the last, so long items get several."""
        for _ in range(min(8, int((perf_counter() - self._last) / SAMPLE_EVERY_S))):
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor from measured to reference-speed time for the interval [start, end]."""
        lo = bisect.bisect_left(self.mids, start - WINDOW_S)
        hi = bisect.bisect_right(self.mids, end + WINDOW_S)
        return REFERENCE_S / statistics.fmean(self.times[lo:hi])


def import_self_times(log: str) -> dict:
    """Self time per top-level package from one `python -X importtime` log."""
    totals: dict[str, float] = {}
    for line in log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():
            continue
        root = name.strip().split(".")[0]
        totals[root] = totals.get(root, 0.0) + int(self_us) * 1e-6
    return totals


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def timed_call(fn, *args, **kwargs):
    """(result, typed error or None, seconds) for one item."""
    from toeplitz_bounds.errors import ToeplitzBoundsError

    start = perf_counter()
    try:
        result, error = fn(*args, **kwargs), None
    except ToeplitzBoundsError as exc:
        result, error = None, exc
    return result, error, perf_counter() - start


def warm_up(workload, seed, checks):
    """One round from its own stream, untimed, so lazy set-up is done, and the
    workload's once-per-run checks."""
    from workloads import rng_for

    workload.run_round(workload.make_round(rng_for(seed, 1)), timed_call, checks)
    check_once = getattr(workload, "check_once", None)
    if check_once:
        check_once(checks)


def measure_end_to_end(args, workload, checks):
    """Closed loop over whole rounds for --seconds; times at the reference speed."""
    from workloads import FAILED, NOT_STRICTLY_FEASIBLE, OK, rng_for

    walls = [run_setup_child(args, importtime=False)[0] for _ in range(SETUP_REPEATS)]
    probe = SpeedProbe()
    warm_up(workload, args.seed, checks)

    intervals = []

    def timed(fn, *a, **kw):
        start = perf_counter()
        out = timed_call(fn, *a, **kw)
        intervals.append((start, start + out[2]))
        probe.sample_if_due()
        return out

    samples = []
    start = perf_counter()
    r = 0
    while r == 0 or perf_counter() - start < args.seconds:
        samples += workload.run_round(workload.make_round(rng_for(args.seed, 0, r)), timed, checks)
        r += 1
    probe.sample()
    wall = perf_counter() - start

    scaled = sorted((b - a) * probe.scale(a, b) for a, b in intervals)
    times = sorted(b - a for a, b in intervals)
    counts = collections.Counter(kind for _, kind in samples)
    failed = counts[FAILED]
    tail_q = workload.tail_percentile
    tail = percentile(scaled, tail_q)
    beyond = sum(1 for t in scaled if t > tail)
    raw = {
        "items_per_s": len(times) / sum(times),
        "item_p50_ms": percentile(times, 50.0) * 1e3,
        "item_tail_ms": percentile(times, tail_q) * 1e3,
        "setup_s": statistics.median(walls),
    }
    metrics = {
        "items_per_s": len(scaled) / sum(scaled),
        "item_p50_ms": percentile(scaled, 50.0) * 1e3,
        "item_tail_ms": tail * 1e3,
        # Probes cannot run inside a child's import, so set-up is scaled by
        # the run's mean speed, which follows the slow drift between runs.
        "setup_s": statistics.median(walls) * REFERENCE_S / statistics.fmean(probe.times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": counts[OK] / len(samples),
    }
    details = {
        "rounds": r,
        "items": len(samples),
        "wall_s": wall,
        "tail_percentile": tail_q,
        "samples_beyond_tail": beyond,
        "failed_frac": 1.0 - counts[OK] / len(samples),
        "not_strictly_feasible": counts[NOT_STRICTLY_FEASIBLE],
        "speed_scale": sum(scaled) / sum(times),
        "probe_samples": len(probe.times),
        **{f"measured_{k}": v for k, v in raw.items()},
        "setup_walls_s": walls,
    }
    if beyond < 10:
        print(f"note: only {beyond} samples beyond p{tail_q:g}; item_tail_ms is under-sampled")
    if getattr(workload, "gaps", None):
        details["bracket_gap_median"] = statistics.median(workload.gaps)
    units = END_TO_END_UNITS
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, len(samples), failed, details


def thread_pool_pass(seed, checks):
    """Study passes at threads=1, 2, 2, 1 on one ray direction.

    The mirrored order cancels a linear drift in machine speed. Returns the
    serial over the pooled time and the bracket gap of the serial pass.
    """
    from toeplitz_bounds import omega_bounds
    from workloads import STUDY_PLANS, bracket_gap, ray_direction, rng_for

    xi = ray_direction(rng_for(seed, 2))
    elapsed, results = {1: 0.0, 2: 0.0}, {}
    for threads in (1, 2, 2, 1):
        start = perf_counter()
        results[threads] = [
            omega_bounds.omega_convergence_study(n, xi, q_schedule=qs, m_offsets=offs, threads=threads)
            for n, qs, offs, _, _ in STUDY_PLANS
        ]
        elapsed[threads] += perf_counter() - start
    same = all(a.rows == b.rows for a, b in zip(results[1], results[2]))
    checks.record("study.threads_identical_rows", same, "threads=2 rows differ from threads=1")
    return elapsed[1] / elapsed[2], bracket_gap(results[1])


def measure_layers(args, workload, checks, spans_path):
    from tracing import Tracer
    from workloads import FAILED, rng_for

    imports = [import_self_times(run_setup_child(args, importtime=True)[1]) for _ in range(IMPORT_PROFILE_REPEATS)]
    warm_up(workload, args.seed, checks)
    speedup, gap = thread_pool_pass(args.seed, checks)

    # Each round runs untraced and traced, alternating which goes first, so
    # drift in machine speed cancels out of the overhead.
    rounds = range(max(1, int(0.4 * args.seconds / NOMINAL_ROUND_S[workload.name])))
    tracer = Tracer()
    traced_timed = tracer.wrap("item", timed_call)
    samples = []
    untraced = traced = 0.0
    for r in rounds:
        for trace_on in ((False, True) if r % 2 == 0 else (True, False)):
            if trace_on:
                tracer.install()
            start = perf_counter()
            try:
                out = workload.run_round(workload.make_round(rng_for(args.seed, 0, r)),
                                         traced_timed if trace_on else timed_call, checks)
            finally:
                tracer.uninstall()
            if trace_on:
                traced += perf_counter() - start
                samples += out
            else:
                untraced += perf_counter() - start
    tracer.write(spans_path)

    values = tracer.layer_metrics()
    values["omega_bounds.thread_speedup"] = speedup
    values["omega_bounds.bracket_gap"] = gap
    for key, package in (("import.numpy_s", "numpy"), ("import.scipy_s", "scipy"),
                         ("import.toeplitz_bounds_self_s", "toeplitz_bounds")):
        values[key] = statistics.median(t.get(package, 0.0) for t in imports)
    values["trace.overhead_s"] = traced - untraced

    units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
    missing = set(units) ^ set(values)
    if missing:
        fail(f"per-layer metrics out of step with BENCHMARK.json: {sorted(missing)}")
    failed = sum(kind == FAILED for _, kind in samples)
    details = {
        "rounds": len(rounds),
        "items": len(samples),
        "untraced_wall_s": untraced,
        "traced_wall_s": traced,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return {k: {"value": values[k], "unit": units[k]} for k in units}, len(samples), failed, details


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def compare(old_path: str, new_path: str):
    """Print new/old ratios per metric and flag changed deterministic counters."""
    with open(old_path, encoding="utf-8") as fh:
        old = json.load(fh)
    with open(new_path, encoding="utf-8") as fh:
        new = json.load(fh)
    same_input = all(old["run"][k] == new["run"][k] for k in ("workload", "seed", "seconds", "trace"))
    if not same_input:
        print("note: the files are for different workload/seed/seconds/trace; counters are not compared")
    for label, rec in (("old", old), ("new", new)):
        m = rec["machine"]
        print(f"{label}: {rec['run']} on {m['nproc']} x {m['cpu_model']}, Python {m['python']}, "
              f"numpy {m['numpy']}, scipy {m['scipy']}")
    changed = 0
    old_metrics = old["result"]["metrics"]
    for name, entry in new["result"]["metrics"].items():
        if name not in old_metrics:
            print(f"{name:48s} {'(new)':>14s} {entry['value']:>14.6g} {entry['unit']}")
            continue
        a, b = old_metrics[name]["value"], entry["value"]
        ratio = f"{b / a:.4f}" if a else "n/a"
        flag = ""
        if same_input and entry["unit"] == "count" and a != b:
            flag = "  COUNTER CHANGED"
            changed += 1
        print(f"{name:48s} {a:>14.6g} {b:>14.6g} {entry['unit']:<6s} x{ratio}{flag}")
    print(f"{changed} deterministic counter(s) changed")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("studies", "lambda_panel", "pick_panel"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two result files")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        compare(*args.compare)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    import_library()
    from workloads import WORKLOADS, Checks, rng_for

    workload = WORKLOADS[args.workload]()
    if args.setup_only:
        workload.make_round(rng_for(args.seed, 0, 0))
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    checks = Checks()
    if args.trace:
        metrics, attempted, failed, details = measure_layers(args, workload, checks, OUT_DIR / f"spans-{stem}.json.gz")
    else:
        metrics, attempted, failed, details = measure_end_to_end(args, workload, checks)

    for name, entry in metrics.items():
        print(f"{name}: {entry['value']:.6g} {entry['unit']}")
    for key, value in details.items():
        if not isinstance(value, list):
            print(f"{key}: {value:.6g}" if isinstance(value, float) else f"{key}: {value}")
    for name, (passed, bad) in sorted(checks.counts.items()):
        print(f"check {name}: {passed} passed, {bad} failed")
    for line in checks.details:
        print(f"FAILED {line}")

    result = {"correct": checks.failures == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "run": {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace},
        "machine": machine_record(),
        "details": details,
        "checks": checks.counts,
        "result": result,
    }
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
