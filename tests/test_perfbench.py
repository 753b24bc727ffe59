"""The benchmark's tracer finds every library name it patches.

perfbench/tracing.py wraps library attributes by name, and a traced run
(`perfbench/run.py --trace 1`) fails with a KeyError once one of them is
renamed or removed. This reads the tracer's table and changes nothing.
"""

import importlib.util
import pathlib

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
