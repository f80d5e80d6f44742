"""Workload corpora, the timed call of each case, and its correctness checks.

Every case goes through the public pipeline.  ``hull-large`` and
``flat-limit`` call ``surface.build_metric`` and ``cli.run_pipeline``
in-process; ``catalog-small`` runs ``cli.main(["solve", ...])`` on a JSON
file written at set-up, so parsing and OBJ/report writing are timed too.
Functions are looked up through their modules at call time, so the
wrappers that ``tracing`` installs see every call.

Why each workload exists:

* ``hull-large``: random sphere hulls with n = 160, 320 and 640.  Dense
  SVDs in the solver and the dense polish least squares dominate; no
  pyramid needs high-precision refinement.
* ``catalog-small``: the catalog solids, twisted double polygons and
  small random hulls.  Cases take well under a second, so per-call
  overhead (pyramid kernels, parsing, writing) dominates, and the
  twisted polygons add edge flips that hulls lack.
* ``flat-limit``: doubly covered triangle and n-gons.  mpmath refinement
  of nearly flat pyramids dominates and many steps are rejected; the
  cases that stall today must show up as failures, never be dropped.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.spatial.distance import pdist

from polyforge import catalog, cli, hull, surface

# One step budget for every case, passed through the public max_steps
# option.  Solved cases need at most about 110 step attempts today; the
# doubly covered 10-gon and 24-gon stall and use all of it.
STEP_BUDGET = 250

HULL_LARGE_SIZES = (160, 320, 640)
CATALOG_HULL_SIZES = (20, 40)
CATALOG_HULLS_PER_SIZE = 4  # 13 cases a pass: >= 100 case timings in 30 s
TWISTED_SIZES = (6, 12, 24)
FLAT_POLYGONS = (4, 6, 8, 10, 12, 24)

# Tolerances of the acceptance tests a01-a04.
HULL_RMS_REL = 1e-4  # congruence RMS, times the diameter (a04)
CUBE_VOLUME_TOL = 1e-5  # (a02)
TETRA_EDGE_TOL = 1e-6  # unit edge lengths (a01)
FLAT_VOLUME_TOL = 1e-8  # |volume| of a degenerate body (a03)
# Face angles of the output mesh summed at each vertex must give back the
# input cone angles; polished positions are exact to ~1e-10 here.
CONE_ANGLE_TOL = 1e-6

UNIT_EDGE_SCALE = 1.0 / (2.0 * math.sqrt(2.0))  # catalog.tetrahedron edge 1


@dataclass
class Output:
    """What a finished case produced, read back outside the timed region."""

    report: str  # report.json text, byte for byte
    vertices: np.ndarray  # (n, 3), labelled like the metric's vertices
    faces: np.ndarray  # (F, 3) triangles
    metric: surface.PolyhedralMetric


@dataclass
class Case:
    name: str
    run: Callable[[], object]  # the timed call; raises on failure
    collect: Callable[[object], Output]
    checks: tuple  # callables Output -> problem text or None

    def verify(self, raw):
        """(report text, problem or None) for the result of ``run``."""
        out = self.collect(raw)
        for check in self.checks:
            problem = check(out)
            if problem:
                return out.report, problem
        return out.report, None


class CaseFailed(RuntimeError):
    """The command-line run of a case exited with a non-zero code."""


# -- checks ------------------------------------------------------------------


def check_cone_angles(out):
    v, f = out.vertices, out.faces
    angles = np.zeros(len(v))
    for c in range(3):
        a = v[f[:, (c + 1) % 3]] - v[f[:, c]]
        b = v[f[:, (c + 2) % 3]] - v[f[:, c]]
        cos = np.einsum("ij,ij->i", a, b) / (
            np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
        )
        np.add.at(angles, f[:, c], np.arccos(np.clip(cos, -1.0, 1.0)))
    err = float(np.abs(angles - out.metric.cone_angles).max())
    if not err <= CONE_ANGLE_TOL:
        return f"cone angles off by {err:.3e}"
    return None


def hull_congruence(points, corner_point):
    def check(out):
        original = np.empty_like(out.vertices)
        original[out.metric.corner_vertex.ravel()] = points[corner_point.ravel()]
        rms = _congruence_rms(out.vertices, original)
        diam = float(pdist(out.vertices).max())
        if not rms <= HULL_RMS_REL * diam:
            return f"congruence RMS {rms:.3e} exceeds {HULL_RMS_REL:g} x diameter {diam:.6g}"
        return None

    return check


def _congruence_rms(a, b):
    """RMS deviation after the best rigid motion, reflections allowed."""
    a = a - a.mean(axis=0)
    b = b - b.mean(axis=0)
    best = math.inf
    for mirror in (1.0, -1.0):
        bm = b * np.array([1.0, 1.0, mirror])
        u, _, vt = np.linalg.svd(a.T @ bm)
        d = np.sign(np.linalg.det(u @ vt))
        rot = u @ np.diag([1.0, 1.0, d]) @ vt
        best = min(best, float(np.sqrt(((a - bm @ rot.T) ** 2).sum() / len(a))))
    return best


def check_cube(out):
    volume = json.loads(out.report)["volume"]
    if not abs(volume - 1.0) <= CUBE_VOLUME_TOL:
        return f"cube volume {volume!r} is not 1"
    return None


def check_unit_tetrahedron(out):
    err = float(np.abs(pdist(out.vertices) - 1.0).max())
    if not err <= TETRA_EDGE_TOL:
        return f"tetrahedron edge lengths off by {err:.3e}"
    return None


def check_flat(out):
    report = json.loads(out.report)
    if not report["degenerate"]:
        return "flat body not flagged degenerate"
    if not abs(report["volume"]) <= FLAT_VOLUME_TOL:
        return f"flat body has volume {report['volume']!r}"
    return None


# -- cases -------------------------------------------------------------------


def pipeline_case(name, dev, checks, max_steps=STEP_BUDGET):
    """A case run in-process through build_metric and run_pipeline."""

    def run():
        metric = surface.build_metric(dev)
        return cli.run_pipeline(metric, max_steps=max_steps)

    def collect(pipe):
        return Output(
            report=json.dumps(pipe.report, sort_keys=True, indent=2) + "\n",
            vertices=pipe.embedded.vertices,
            faces=np.array(pipe.embedded.faces, dtype=np.int64),
            metric=pipe.solve.state.metric,
        )

    return Case(name, run, collect, (check_cone_angles, *checks))


def cli_case(name, dev, workdir, checks):
    """A case run through ``forge solve`` on a JSON file written now."""
    stem = Path(workdir) / name
    src = stem.with_suffix(".json")
    obj = stem.with_suffix(".obj")
    report = stem.with_suffix(".report.json")
    src.write_text(dev.to_json())
    argv = [
        "solve", str(src), "--out", str(obj), "--report", str(report),
        "--max-steps", str(STEP_BUDGET),
    ]

    def run():
        code = cli.main(argv)
        if code != cli.EXIT_OK:
            raise CaseFailed(f"forge solve exited with code {code}")

    def collect(_):
        verts, faces = [], []
        for line in obj.read_text().splitlines():
            if line.startswith("v "):
                verts.append([float(x) for x in line.split()[1:]])
            elif line.startswith("f "):
                faces.append([int(x) - 1 for x in line.split()[1:]])
        return Output(
            report=report.read_text(),
            vertices=np.array(verts),
            faces=np.array(faces, dtype=np.int64),
            metric=surface.build_metric(dev),
        )

    return Case(name, run, collect, (check_cone_angles, *checks))


def hull_large(seed, workdir, sizes=HULL_LARGE_SIZES):
    cases = []
    for n in sizes:
        dev, points, corner_point = hull.random_sphere_development(n, seed=[seed, n])
        cases.append(
            pipeline_case(f"hull{n}", dev, (hull_congruence(points, corner_point),))
        )
    return cases


def catalog_small(seed, workdir):
    cases = [
        cli_case("tetrahedron", catalog.tetrahedron(UNIT_EDGE_SCALE), workdir,
                 (check_unit_tetrahedron,)),
        cli_case("cube", catalog.cube(), workdir, (check_cube,)),
    ]
    for n in TWISTED_SIZES:
        cases.append(cli_case(f"twisted{n}", catalog.twisted_double_polygon(n), workdir, ()))
    for n in CATALOG_HULL_SIZES:
        for k in range(CATALOG_HULLS_PER_SIZE):
            dev, points, corner_point = hull.random_sphere_development(
                n, seed=[seed, n, k]
            )
            cases.append(
                cli_case(f"hull{n}-{k}", dev, workdir,
                         (hull_congruence(points, corner_point),))
            )
    return cases


def flat_limit(seed, workdir, polygons=FLAT_POLYGONS, max_steps=STEP_BUDGET):
    """Fixed shapes: the seed is unused, so every run measures the same
    stalls, which depend on the floating-point environment alone."""
    cases = [
        pipeline_case("triangle345", catalog.doubly_covered_triangle(3.0, 4.0, 5.0),
                      (check_flat,), max_steps)
    ]
    for n in polygons:
        cases.append(
            pipeline_case(f"polygon{n}", catalog.doubly_covered_polygon(n),
                          (check_flat,), max_steps)
        )
    return cases


WORKLOADS = {
    "hull-large": hull_large,
    "catalog-small": catalog_small,
    "flat-limit": flat_limit,
}
