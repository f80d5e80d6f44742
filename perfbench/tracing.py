"""Spans around the public functions of each polyforge layer.

The wrappers live here, in the benchmark, not in the package.  Each one
is bound wherever a caller looks the name up: the solver imports
``step``'s helpers by name, so patching only ``triangulation.
weighted_delaunay`` would miss every call the solver makes.  Every
original is restored when the traced run ends.

A span records name, start, end, parent and case id.  Spans are kept in
memory and written out once, at the end.  Wrappers record nothing
outside a case, so the benchmark's own checks never show up.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from polyforge import cli, embed, jacobian, kernels, polytope, solver, surface, triangulation

# StepResult.reason prefix -> bucket.
_REJECT_BUCKETS = (
    ("edge dihedral exceeded pi", "dihedral"),
    ("no convergence in", "newton"),
    ("curvature left the admissible band", "band"),
    ("spherical section area decreased", "area"),
    ("radii escaped the initial bound", "radius"),
    ("curvature Jacobian is numerically singular", "singular"),
)
REJECT_REASONS = tuple(b for _, b in _REJECT_BUCKETS) + ("exception",)


def reject_bucket(reason):
    """Bucket a ``StepResult.reason``; the remaining reasons are the
    exceptions that the solver turns into ``"Name: message"``."""
    for prefix, bucket in _REJECT_BUCKETS:
        if reason.startswith(prefix):
            return bucket
    return "exception"


def _count_step(counts, result):
    if result.accepted:
        counts["solver.steps_accepted"] += 1
        counts["solver.newton_iters"] += result.newton_iters
    else:
        counts["solver.steps_rejected"] += 1
        counts["solver.rejects." + reject_bucket(result.reason)] += 1


def _count_delaunay(counts, result):
    counts["triangulation.flips"] += result


def _count_pyramids(counts, result):
    counts["polytope.rows"] += len(result.refined)
    counts["polytope.refined_rows"] += int(result.refined.sum())


def _count_apex(counts, result):
    counts["embed.apex_iters"] += result.iterations


# (owner, attribute, span name, counter of the work a call's result
# shows).  Module functions are rebound in
# every polyforge module that holds the same object; methods are patched
# on their class; numpy.linalg is patched on the module the package calls
# through (``np.linalg.svd``).
TARGETS = (
    (cli, "main", "cli.main", None),
    (cli, "run_pipeline", "cli.run_pipeline", None),
    (surface, "parse_development", "surface.parse_development", None),
    (surface, "build_metric", "surface.build_metric", None),
    (solver, "solve_path", "solver.solve_path", None),
    (solver, "start_state", "solver.start_state", None),
    (solver, "step", "solver.step", _count_step),
    (triangulation, "weighted_delaunay", "triangulation.weighted_delaunay", _count_delaunay),
    (triangulation, "badness_scan", "triangulation.badness_scan", None),
    (triangulation.CornerMesh, "edges", "triangulation.edges", None),
    (polytope, "solve_pyramids", "polytope.solve_pyramids", _count_pyramids),
    (polytope.GeneralizedPolytope, "curvature_report", "polytope.curvature_report", None),
    (kernels, "face_pyramids", "kernels.face_pyramids", None),
    (kernels, "edge_badness", "kernels.edge_badness", None),
    (kernels, "scatter_add", "kernels.scatter_add", None),
    (jacobian, "assemble", "jacobian.assemble", None),
    (np.linalg, "svd", "linalg.svd", None),
    (np.linalg, "solve", "linalg.solve", None),
    (np.linalg, "lstsq", "linalg.lstsq", None),
    (embed, "place_faces", "embed.place_faces", None),
    (embed, "solve_apex", "embed.solve_apex", _count_apex),
    (embed, "apex_boundary_distance", "embed.apex_boundary_distance", None),
)

LAYERS = (
    "bench", "cli", "surface", "solver", "triangulation", "polytope",
    "kernels", "jacobian", "linalg", "embed",
)

# Per-layer metrics: (name, unit, better).  "_s" metrics are unscaled
# seconds per traced pass, except trace.overhead_s, which compares passes
# made at different times and so uses the probe-scaled pass times of
# run.py; counts are per pass too.
METRICS = (
    ("solver.self_s", "s", "lower"),
    ("solver.start_s", "s", "lower"),
    ("solver.step_calls", "count", "lower"),
    ("solver.steps_accepted", "count", "lower"),
    ("solver.steps_rejected", "count", "lower"),
    ("solver.accept_ratio", "ratio", "higher"),
    ("solver.newton_iters", "count", "lower"),
    *((f"solver.rejects.{r}", "count", "lower") for r in REJECT_REASONS),
    ("linalg.svd_calls", "count", "lower"),
    ("linalg.svd_s", "s", "lower"),
    ("linalg.solve_s", "s", "lower"),
    ("linalg.lstsq_s", "s", "lower"),
    ("polytope.solve_pyramids_s", "s", "lower"),
    ("polytope.refine_s", "s", "lower"),
    ("polytope.refined_rows", "count", "lower"),
    ("polytope.refine_ratio", "ratio", "lower"),
    ("polytope.curvature_report_calls", "count", "lower"),
    ("polytope.curvature_report_s", "s", "lower"),
    ("kernels.face_pyramids_calls", "count", "lower"),
    ("kernels.face_pyramids_s", "s", "lower"),
    ("kernels.edge_badness_s", "s", "lower"),
    ("kernels.scatter_add_s", "s", "lower"),
    ("triangulation.delaunay_calls", "count", "lower"),
    ("triangulation.delaunay_s", "s", "lower"),
    ("triangulation.flips", "count", "lower"),
    ("triangulation.badness_scan_s", "s", "lower"),
    ("triangulation.edges_calls", "count", "lower"),
    ("triangulation.edges_s", "s", "lower"),
    ("jacobian.assemble_calls", "count", "lower"),
    ("jacobian.assemble_s", "s", "lower"),
    ("embed.place_faces_s", "s", "lower"),
    ("embed.solve_apex_s", "s", "lower"),
    ("embed.apex_iters", "count", "lower"),
    ("embed.boundary_distance_s", "s", "lower"),
    ("surface.parse_s", "s", "lower"),
    ("surface.build_metric_s", "s", "lower"),
    ("cli.io_s", "s", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS if layer != "solver"),
    ("trace.case_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Inclusive durations (seconds) reported under another name.
_DURATIONS = {
    "solver.start_s": "solver.start_state",
    "linalg.svd_s": "linalg.svd",
    "linalg.solve_s": "linalg.solve",
    "linalg.lstsq_s": "linalg.lstsq",
    "polytope.solve_pyramids_s": "polytope.solve_pyramids",
    "polytope.curvature_report_s": "polytope.curvature_report",
    "kernels.face_pyramids_s": "kernels.face_pyramids",
    "kernels.edge_badness_s": "kernels.edge_badness",
    "kernels.scatter_add_s": "kernels.scatter_add",
    "triangulation.delaunay_s": "triangulation.weighted_delaunay",
    "triangulation.badness_scan_s": "triangulation.badness_scan",
    "triangulation.edges_s": "triangulation.edges",
    "jacobian.assemble_s": "jacobian.assemble",
    "embed.place_faces_s": "embed.place_faces",
    "embed.solve_apex_s": "embed.solve_apex",
    "embed.boundary_distance_s": "embed.apex_boundary_distance",
    "surface.parse_s": "surface.parse_development",
    "surface.build_metric_s": "surface.build_metric",
}
# Time no child span covers.
_SELF = {
    "polytope.refine_s": "polytope.solve_pyramids",
    "cli.io_s": "cli.main",
}
_CALLS = {
    "solver.step_calls": "solver.step",
    "linalg.svd_calls": "linalg.svd",
    "polytope.curvature_report_calls": "polytope.curvature_report",
    "kernels.face_pyramids_calls": "kernels.face_pyramids",
    "triangulation.delaunay_calls": "triangulation.weighted_delaunay",
    "triangulation.edges_calls": "triangulation.edges",
    "jacobian.assemble_calls": "jacobian.assemble",
}


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, case id]
        self.counts = Counter()
        self._stack = []
        self._case = None
        self._patches = []  # (owner, attribute, original)

    # -- recording ------------------------------------------------------------

    @contextmanager
    def case(self, case_id):
        """Root span of one case; spans are recorded only inside it."""
        self._case = case_id
        try:
            with self.span("case"):
                yield
        finally:
            self._case = None

    @contextmanager
    def span(self, name):
        """Record the block as a span, if a case is open.

        A signal handler may open a span between any two statements here,
        which can only give it the wrong parent: every interval is still
        subtracted from exactly one enclosing span."""
        if self._case is None:
            yield
            return
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._case]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, counter):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._case is None:
                return fn(*args, **kwargs)
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                counter(tracer.counts, result)
            return result

        return traced

    # -- patching -------------------------------------------------------------

    def install(self):
        """Bind a wrapper wherever each target's name is looked up."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "polyforge" or name.startswith("polyforge."))
        ]
        for owner, attr, name, counter in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, counter)
            owners = modules if any(owner is m for m in modules) else [owner]
            for mod in owners:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def metrics(self, passes, overhead):
        """Per-layer metrics per traced pass, as {name: value}.

        ``overhead`` is the traced minus the untraced pass wall time.
        ``trace.case_s`` is the traced case time, which the layers' self
        times add up to; ``trace.unattributed_s`` is what they miss."""
        n = len(self.spans)
        dur = np.array([end - start for _, start, end, _, _ in self.spans])
        covered = np.zeros(n)
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                covered[parent] += dur[i]
        own = dur - covered
        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = Counter()
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for i, (name, *_rest) in enumerate(self.spans):
            total[name] += dur[i]
            self_time[name] += own[i]
            calls[name] += 1
            layer_self["bench" if name == "case" else name.split(".")[0]] += own[i]

        out = {}
        for key, span in _DURATIONS.items():
            out[key] = total[span]
        for key, span in _SELF.items():
            out[key] = self_time[span]
        for key, span in _CALLS.items():
            out[key] = calls[span]
        for key in ("solver.steps_accepted", "solver.steps_rejected",
                    "solver.newton_iters", "triangulation.flips",
                    "polytope.refined_rows", "embed.apex_iters"):
            out[key] = self.counts[key]
        for reason in REJECT_REASONS:
            out[f"solver.rejects.{reason}"] = self.counts[f"solver.rejects.{reason}"]
        for layer, value in layer_self.items():
            out[f"{layer}.self_s"] = value
        out["trace.case_s"] = total["case"]
        out["trace.unattributed_s"] = total["case"] - sum(layer_self.values())
        per_pass = {k: v / passes for k, v in out.items()}
        calls_made = out["solver.step_calls"]
        per_pass["solver.accept_ratio"] = (
            out["solver.steps_accepted"] / calls_made if calls_made else 0.0
        )
        rows = self.counts["polytope.rows"]
        per_pass["polytope.refine_ratio"] = out["polytope.refined_rows"] / rows if rows else 0.0
        per_pass["trace.overhead_s"] = overhead
        return per_pass

    def dump(self, path):
        """Write every span once, as one JSON document."""
        doc = {
            "fields": ["name", "start", "end", "parent", "case"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))
