"""Span recorder that times the calls one library module makes into the next.

The library itself carries no instrumentation. A traced run replaces module
attributes (for example `circle_quad.boundary_values`, the name through which
circle_quad reaches disk_core) with wrappers that record a span per call, and
puts the originals back when the run ends. Spans live in memory as
(name, start, end, parent, info) and are written out once, after the run.
A span's self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import json
from time import perf_counter

import numpy as np

from toeplitz_bounds import circle_quad, omega_bounds, pick_interp, toeplitz_op
from toeplitz_bounds.errors import ToeplitzBoundsError

ITEM = "item"
BOUNDARY = "disk_core.boundary_values"
LAMBDA = "circle_quad.lambda_functional"
FOLD = "circle_quad.brentq"
LEMMA1 = "toeplitz_op.lemma1_upper_bound"
RESIDUE = "toeplitz_op.apply_toeplitz_residue"
SUP_NORM = "toeplitz_op.sup_norm"
MIN_LEVEL = "pick_interp.minimal_level"
FEASIBLE = "pick_interp.pick_feasible"
CONSTRUCT = "pick_interp.construct_interpolant"
CERTIFY = "omega_bounds.certify_lower_bound"
STUDY = "omega_bounds.omega_convergence_study"


def _boundary_info(args, kwargs, result, error):
    """(points evaluated, True for the one-sweep rotation grid scan).

    The grid scan calls boundary_values(B, theta); the adaptive pair evaluator
    always passes an offset and calls twice per quadrature node.
    """
    offset = kwargs.get("offset", args[2] if len(args) > 2 else None)
    theta = np.asarray(args[1])
    if offset is None:
        return int(theta.size), True
    return int(np.broadcast(theta, np.asarray(offset)).size), False


def _lambda_info(args, kwargs, result, error):
    return 0 if result is None else int(result.evaluations)


def _failed_info(args, kwargs, result, error):
    return error is not None


# (owner, attribute, span name, info hook): every call edge between layers
# that the three workloads reach.
PATCH_POINTS = (
    (circle_quad, "boundary_values", BOUNDARY, _boundary_info),
    (toeplitz_op, "boundary_values", BOUNDARY, _boundary_info),
    (circle_quad, "brentq", FOLD, None),
    (circle_quad, "lambda_functional", LAMBDA, _lambda_info),
    (toeplitz_op, "lambda_functional", LAMBDA, _lambda_info),
    (omega_bounds, "lemma1_upper_bound", LEMMA1, None),
    (omega_bounds, "apply_toeplitz_residue", RESIDUE, None),
    (toeplitz_op.RationalFunction, "sup_norm", SUP_NORM, None),
    (pick_interp, "minimal_level", MIN_LEVEL, None),
    (omega_bounds, "minimal_level", MIN_LEVEL, None),
    (pick_interp, "pick_feasible", FEASIBLE, None),
    (pick_interp, "construct_interpolant", CONSTRUCT, _failed_info),
    (omega_bounds, "construct_interpolant", CONSTRUCT, _failed_info),
    (omega_bounds, "certify_lower_bound", CERTIFY, None),
    (omega_bounds, "omega_convergence_study", STUDY, None),
)


class Tracer:
    """In-memory span recorder; single-threaded use only."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self._stack: list[int] = []
        self._patched: list = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, info=None):
        """Return fn wrapped so that every call records one span."""
        name_id = self._name_id(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            result = error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except ToeplitzBoundsError as exc:
                error = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                extra = info(args, kwargs, result, error) if info else None
                spans[slot] = (name_id, start, end, parent, extra)

        return traced

    def install(self):
        for owner, attr, name, info in PATCH_POINTS:
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, info))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Spans as gzipped JSON: names plus [name, start, end, parent] rows."""
        rows = [[s[0], round(s[1], 7), round(s[2], 7), s[3]] for s in self.spans]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": self.names, "fields": ["name", "start", "end", "parent"], "spans": rows}, fh)

    def layer_metrics(self) -> dict:
        """Per-layer counters and times derived from the recorded spans."""
        child_time = [0.0] * len(self.spans)
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start

        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        grid_points = adaptive_points = evals_reported = construct_failed = 0
        constructs_in_certify = 0
        for k, (name_id, start, end, parent, extra) in enumerate(self.spans):
            name = self.names[name_id]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + (end - start - child_time[k])
            if name == BOUNDARY:
                if extra[1]:
                    grid_points += extra[0]
                else:
                    adaptive_points += extra[0]
            elif name == LAMBDA:
                evals_reported += extra
            elif name == CONSTRUCT:
                construct_failed += int(extra)
                if parent >= 0 and self.names[self.spans[parent][0]] == CERTIFY:
                    constructs_in_certify += 1

        def n(name):
            return calls.get(name, 0)

        def t(table, name):
            return table.get(name, 0.0)

        points = grid_points + adaptive_points
        item_time = t(total, ITEM)
        return {
            "disk_core.boundary_values.calls": n(BOUNDARY),
            "disk_core.boundary_values.points": points,
            "disk_core.boundary_values.self_s": t(own, BOUNDARY),
            "circle_quad.lambda_functional.calls": n(LAMBDA),
            "circle_quad.lambda_functional.self_s": t(own, LAMBDA),
            "circle_quad.lambda_functional.evals_reported": evals_reported,
            "circle_quad.grid_points_share": grid_points / points if points else 0.0,
            # 1 evaluation per grid node, 2 boundary points per adaptive node
            "circle_quad.evals_unreported": grid_points + adaptive_points // 2 - evals_reported,
            "circle_quad.fold_solves": n(FOLD),
            "circle_quad.fold_s": t(total, FOLD),
            "toeplitz_op.lemma1_upper_bound.s": t(total, LEMMA1),
            "toeplitz_op.apply_toeplitz_residue.calls": n(RESIDUE),
            "toeplitz_op.apply_toeplitz_residue.s": t(total, RESIDUE),
            "toeplitz_op.sup_norm.calls": n(SUP_NORM),
            "toeplitz_op.sup_norm.s": t(total, SUP_NORM),
            "pick_interp.minimal_level.calls": n(MIN_LEVEL),
            "pick_interp.minimal_level.s": t(total, MIN_LEVEL),
            "pick_interp.eigensolves": n(FEASIBLE) + n(CONSTRUCT),
            "pick_interp.construct_interpolant.calls": n(CONSTRUCT),
            "pick_interp.construct_interpolant.failed": construct_failed,
            "pick_interp.construct_interpolant.self_s": t(own, CONSTRUCT),
            "omega_bounds.certify_lower_bound.calls": n(CERTIFY),
            "omega_bounds.certify_lower_bound.self_s": t(own, CERTIFY),
            "omega_bounds.slack_retries": constructs_in_certify - n(CERTIFY),
            "omega_bounds.upper_share": t(total, LAMBDA) / item_time if item_time else 0.0,
        }
