"""The benchmark's tracer finds every library name it patches, and works
with the calls the library makes.

perfbench/tracing.py wraps library attributes by name, and a traced run
(`perfbench/run.py --trace 1`) fails with a KeyError once one of them is
renamed or removed, and in its info hooks once a call takes a shape they
cannot read. These read perfbench and change none of it.
"""

import cmath
import importlib.util
import pathlib

import numpy as np

from toeplitz_bounds import BlaschkeProduct, circle_quad, pick_interp

from test_public_api import PACKAGE, ROOT, read_names

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_names_an_existing_attribute():
    points = load_tracing().PATCH_POINTS
    assert points
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _name, _info in points
        if attr not in owner.__dict__
    ]
    assert missing == []


def test_a_traced_lambda_call_returns_the_untraced_result():
    tracing = load_tracing()
    ray = BlaschkeProduct(zeros=tuple((1.0 - 0.002 ** np.arange(1, 3)) * cmath.exp(0.7j)))
    rng = np.random.default_rng(5)
    product = BlaschkeProduct(zeros=tuple(0.9 * rng.uniform(0.05, 1.0, 4) * np.exp(2j * np.pi * rng.uniform(size=4))))
    untraced = [circle_quad.lambda_functional(B) for B in (ray, product)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [circle_quad.lambda_functional(B) for B in (ray, product)]
    finally:
        tracer.uninstall()
    assert traced == untraced
    metrics = tracer.layer_metrics()
    assert metrics["circle_quad.lambda_functional.calls"] == 2
    assert metrics["circle_quad.lambda_functional.evals_reported"] == sum(r.evaluations for r in untraced)
    assert metrics["disk_core.boundary_values.points"] > 0


def test_a_traced_construction_returns_the_untraced_certificate():
    # sup_norm is patched on the interpolant's class by name: one
    # construction records one sup_norm span, inside its own span
    tracing = load_tracing()
    rng = np.random.default_rng(3)
    nodes = rng.uniform(0.0, 0.95, 5) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 5))
    targets = rng.normal(size=5) + 1j * rng.normal(size=5)
    problem = pick_interp.InterpolationProblem(nodes=tuple(nodes), targets=tuple(targets))
    level = pick_interp.minimal_level(problem) * (1 + 1e-6)
    untraced = pick_interp.construct_interpolant(problem, level)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = pick_interp.construct_interpolant(problem, level)
    finally:
        tracer.uninstall()
    assert (traced.level, traced.residuals, traced.sup_norm) == (untraced.level, untraced.residuals, untraced.sup_norm)
    metrics = tracer.layer_metrics()
    assert metrics["toeplitz_op.sup_norm.calls"] == 1
    assert metrics["pick_interp.construct_interpolant.calls"] == 1
    (parent,) = [span[3] for span in tracer.spans if tracer.names[span[0]] == tracing.SUP_NORM]
    assert tracer.names[tracer.spans[parent][0]] == tracing.CONSTRUCT


def test_only_the_listed_patch_points_serve_the_benchmark_alone():
    # every other traced name has a reader in the library (its re-exports in
    # __init__ aside), the CLI or the scripts; these two stay only because
    # the tracer patches them, so a new benchmark-only name shows here
    readers = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"] + list((ROOT / "scripts").glob("*.py"))
    read = set().union(*(read_names(p.read_text(encoding="utf-8")) for p in readers))
    unread = {
        f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        for owner, attr, _name, _info in load_tracing().PATCH_POINTS
        if attr not in read
    }
    assert unread == {"circle_quad.brentq", "pick_interp.pick_feasible"}
