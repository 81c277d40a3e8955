"""Span tracing of the uwdg layers from outside the library.

The tracer replaces public functions with timing wrappers in the module
namespaces that bind them (``uwdg.harness`` imports its collaborators by
name, so its bindings are patched too), and only in the process that
installs it.  Each call of a wrapped function records a span: name,
start, end, the index of its parent span and the case id of the (k, N)
row being run.  Spans stay in memory; ``write_spans`` writes them out
once the run ends.  Hot helpers of ``uwdg.basis`` get counters only.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

import uwdg.basis
import uwdg.correction
import uwdg.diagnostics
import uwdg.harness
import uwdg.projection
import uwdg.solver

_H, _P, _C = uwdg.harness, uwdg.projection, uwdg.correction

# span name -> (function, the namespaces whose binding of it is patched);
# the layer is the part of the name before the dot
SPANS = {
    "harness.run_study": ("run_study", [_H]),
    "harness.run_case": ("run_case", [_H]),
    "mesh.make_mesh": ("make_mesh", [_H]),
    "flux.classify": ("classify_assumption", [_H, _P, _C]),
    "flux.solve_block_circulant": ("solve_block_circulant", [_P]),
    "projection.project_star": ("project_star", [_C, uwdg.diagnostics]),
    "projection.project_l2": ("project_l2", [_H, _P, _C]),
    "correction.reference_interpolant": ("reference_interpolant", [_H, _C]),
    "correction.zeta_diagnostics": ("zeta_diagnostics", [_H]),
    "solver.integrate": ("integrate", [_H]),
    "diagnostics.point_errors": ("point_errors", [_H]),
    "diagnostics.projection_error": ("projection_error", [_H]),
    "diagnostics.broken_l2_error": ("broken_l2_error", [_H]),
    "diagnostics.flux_errors": ("flux_errors", [_H]),
    "diagnostics.cell_average_error": ("cell_average_error", [_H]),
    "diagnostics.observed_orders": ("observed_orders", [_H]),
    "siac.postprocessed_error": ("postprocessed_error", [_H]),
    "siac.kernel_coeffs": ("kernel_coeffs", [_H]),
}
# building the operator and its one-step update: DGOperator methods
OPERATOR_BUILD = ("__init__", "coupling_blocks", "rk4_sparse_update")
COUNTED = ("bspline_eval", "legendre_table")


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: list = []        # (name, start, end, parent, case)
        self.counts: Counter = Counter()
        self.study = ""
        self._case = ""
        self._stack: list[int] = []
        self._saved: list = []       # (owner, attribute, original)

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent,
                                   self._case or self.study)
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def _counter(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        for name, (attr, owners) in SPANS.items():
            fn = getattr(owners[0], attr)
            after = {"solver.integrate": self._count_steps,
                     "siac.postprocessed_error": self._count_points}.get(name)
            wrapper = self._span(name, fn, after)
            if name == "harness.run_case":
                wrapper = self._case_wrapper(wrapper)
            for owner in owners:
                self._patch(owner, attr, wrapper)
        op = uwdg.solver.DGOperator
        for attr in OPERATOR_BUILD:
            self._patch(op, attr,
                        self._span("solver.operator_build", getattr(op, attr)))
        for attr in COUNTED:
            self._patch(uwdg.basis, attr,
                        self._counter(f"basis.{attr}_calls",
                                      getattr(uwdg.basis, attr)))

    def _case_wrapper(self, inner):
        def wrapper(cfg, N, *args, **kwargs):
            self._case = f"{self.study}:k={cfg.k}:N={N}"
            try:
                return inner(cfg, N, *args, **kwargs)
            finally:
                self._case = ""
        return wrapper

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _count_steps(self, args, kwargs, result):
        op = args[0]
        self.counts["solver.steps"] += result.n_steps
        self.counts["solver.cell_steps"] += (op.mesh.N * (op.k + 1)
                                             * result.n_steps)

    def _count_points(self, args, kwargs, result):
        u_h = args[0]
        n_quad = kwargs.get("n_quad") or uwdg.basis.default_quad_points(u_h.k)
        self.counts["siac.points"] += u_h.mesh.N * n_quad

    def take(self) -> tuple[list, Counter]:
        """Spans and counts recorded since the last take, then reset."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def self_times(spans: list) -> Counter:
    """Seconds per span name, each span less the time of its children."""
    out: Counter = Counter()
    for name, start, end, parent, _ in spans:
        out[name] += end - start
        if parent >= 0:
            out[spans[parent][0]] -= end - start
    return out


def write_spans(path, passes: list) -> None:
    """One JSON object per span; ``pass`` numbers the traced pass."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, spans in enumerate(passes):
            for idx, (name, start, end, parent, case) in enumerate(spans):
                fh.write(json.dumps({"pass": i, "id": idx, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "case": case}) + "\n")
