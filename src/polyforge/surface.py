"""Developments: triangle soups with side gluings, and the cone metric
they induce on the sphere.

The input format is JSON::

    {
      "triangles": [{"sides": [a, b, c]}, ...],
      "gluings":   [[[t, s], [t2, s2]], ...]
    }

Side ``s`` of a triangle is the one opposite corner ``s``; traversed
from corner ``(s+1)%3`` to corner ``(s+2)%3``.  A gluing identifies two
sides with opposite traversal directions, so a consistently oriented
closed surface always results.  Gluing a side to itself is rejected
(it would pinch the edge's midpoint into a boundary cone).

Inside the package the gluing is one slot table, ``twin``: slot
``3 t + s`` is side ``s`` of triangle ``t``, and ``twin[3 t + s]`` is
the slot glued to it.  The JSON pairs become the table in one place,
``twin_table``, and the table is listed back as pairs in one other,
``Development.to_json``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DevelopmentError, MetricError, SchemaError

# Glued sides may disagree on length by at most this relative amount;
# below it they are snapped to the common mean.
LENGTH_SNAP_REL = 1e-12

# Relative slack on the strict triangle inequality.
DEGENERACY_TOL = 1e-14

GAUSS_BONNET_TOL = 1e-9


@dataclass(frozen=True)
class Development:
    """Validated triangle soup; lengths are already snapped across gluings."""

    sides: np.ndarray  # (F, 3) float, side s opposite corner s
    twin: np.ndarray  # (3F,) int, the slot glued to each slot 3 t + s

    @property
    def n_faces(self):
        return self.sides.shape[0]

    def to_json(self, indent=None):
        """The JSON form; each gluing is listed once, by its first slot, in
        slot order."""
        first = np.flatnonzero(np.arange(self.twin.size) < self.twin)
        pairs = np.stack(np.divmod(first, 3) + np.divmod(self.twin[first], 3), axis=1)
        doc = {
            "triangles": [{"sides": [float(x) for x in row]} for row in self.sides],
            "gluings": [[[t, s], [t2, s2]] for t, s, t2, s2 in pairs.tolist()],
        }
        return json.dumps(doc, indent=indent)


@dataclass(frozen=True)
class PolyhedralMetric:
    """Cone metric induced by a development.

    Vertices are the gluing orbits of triangle corners, labelled 0..n-1
    in order of their smallest (triangle, corner) member.
    """

    development: Development
    corner_vertex: np.ndarray  # (F, 3) int vertex label per corner
    cone_angles: np.ndarray  # (n,) total angle at each vertex
    deficits: np.ndarray  # (n,) 2*pi - cone angle

    @property
    def n_vertices(self):
        return self.cone_angles.shape[0]

    @property
    def n_faces(self):
        return self.development.n_faces

    @property
    def n_edges(self):
        return (3 * self.n_faces) // 2


def _schema_fail(msg):
    raise SchemaError(msg)


def parse_development(text: str) -> Development:
    """Parse and validate a development from its JSON serialization.

    Raises SchemaError for structural problems (bad JSON, wrong types,
    out-of-range indices) and DevelopmentError, with the full list of
    violations, for semantic ones (unmatched or self-glued sides, length
    mismatches beyond tolerance, triangle-inequality failures).
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc

    if not isinstance(doc, dict):
        _schema_fail("top level must be an object")
    if "triangles" not in doc or "gluings" not in doc:
        _schema_fail("missing required keys 'triangles' and 'gluings'")
    tris = doc["triangles"]
    glus = doc["gluings"]
    if not isinstance(tris, list) or not tris:
        _schema_fail("'triangles' must be a non-empty list")
    if not isinstance(glus, list):
        _schema_fail("'gluings' must be a list")

    nf = len(tris)
    sides = np.empty((nf, 3))
    for t, tri in enumerate(tris):
        if not isinstance(tri, dict) or "sides" not in tri:
            _schema_fail(f"triangle {t} must be an object with a 'sides' key")
        row = tri["sides"]
        if not isinstance(row, list) or len(row) != 3:
            _schema_fail(f"triangle {t}: 'sides' must be a list of 3 numbers")
        for k, x in enumerate(row):
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                _schema_fail(f"triangle {t} side {k}: not a number")
            try:
                x = float(x)
            except OverflowError:  # an integer beyond the float range
                x = math.inf
            if not math.isfinite(x) or x <= 0.0:
                _schema_fail(f"triangle {t} side {k}: must be positive and finite")
            sides[t, k] = x

    pairs = []
    for g, pair in enumerate(glus):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or any(
                not isinstance(ref, list)
                or len(ref) != 2
                or any(isinstance(v, bool) or not isinstance(v, int) for v in ref)
                for ref in pair
            )
        ):
            _schema_fail(f"gluing {g}: must be a pair of [triangle, side] index pairs")
        (t, s), (t2, s2) = pair
        for tt, ss in ((t, s), (t2, s2)):
            if not (0 <= tt < nf) or not (0 <= ss < 3):
                _schema_fail(f"gluing {g}: reference [{tt}, {ss}] out of range")
        pairs.append(((t, s), (t2, s2)))

    violations = []

    seen = {}
    for g, ((t, s), (t2, s2)) in enumerate(pairs):
        if (t, s) == (t2, s2):
            violations.append(f"gluing {g}: side ({t}, {s}) glued to itself")
            continue
        for ref in ((t, s), (t2, s2)):
            if ref in seen:
                violations.append(
                    f"side ({ref[0]}, {ref[1]}) appears in gluings {seen[ref]} and {g}"
                )
            else:
                seen[ref] = g
    for t in range(nf):
        for s in range(3):
            if (t, s) not in seen:
                violations.append(f"side ({t}, {s}) is not glued to anything")

    if not violations:
        snapped = sides.copy()
        for (t, s), (t2, s2) in pairs:
            a, b = sides[t, s], sides[t2, s2]
            if abs(a - b) > LENGTH_SNAP_REL * max(a, b):
                violations.append(
                    f"glued sides ({t},{s}) and ({t2},{s2}) have lengths "
                    f"{float(a)!r} vs {float(b)!r}"
                )
            else:
                m = 0.5 * (a + b)
                snapped[t, s] = m
                snapped[t2, s2] = m
        sides = snapped

    scale = sides.max()
    for t in range(nf):
        a, b, c = sides[t]
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            if y + z - x <= DEGENERACY_TOL * scale:
                violations.append(f"triangle {t}: sides {tuple(sides[t].tolist())} degenerate")
                break

    if violations:
        raise DevelopmentError(violations)

    return Development(sides=sides, twin=twin_table(nf, pairs))


def twin_table(n_faces, pairs):
    """The slot table of the gluings ``pairs`` ((t, s), (t2, s2)) of
    ``n_faces`` triangles: ``twin[3 t + s] = 3 t2 + s2`` and back.  The
    pairs must glue every side exactly once, to another side."""
    slots = np.array(
        [(3 * t + s, 3 * t2 + s2) for (t, s), (t2, s2) in pairs], dtype=np.int64
    ).reshape(-1, 2)
    twin = np.empty(3 * n_faces, dtype=np.int64)
    twin[slots[:, 0]] = slots[:, 1]
    twin[slots[:, 1]] = slots[:, 0]
    return twin


def _glue_corners(nf, twin):
    """Vertex label of each corner 3 t + c: the gluing classes of the
    corners, numbered in order of their smallest member
    (``kernels.components``).

    Each slot runs from its tail corner to its head corner
    (``kernels.side_ends``), and its twin runs the same segment
    backwards, so each slot's tail is its twin's head.  A per-corner
    union-find that keeps the smallest member as representative gives the
    same labels; it took 0.58, 1.23 and 2.62 ms at n = 160, 320 and 640
    against 0.21, 0.38 and 0.69 ms for the array passes (best of 150 on a
    2-vCPU Xeon host)."""
    tail, head = kernels.side_ends(np.arange(3 * nf))
    return kernels.components(3 * nf, tail, head[twin])


def build_metric(dev: Development) -> PolyhedralMetric:
    """Glue the development and compute the induced cone metric.

    Raises MetricError if the glued surface is not a sphere or if any
    cone angle fails convexity (deficit must lie strictly in (0, 2*pi)).
    """
    nf = dev.n_faces
    corner_vertex = _glue_corners(nf, dev.twin).reshape(nf, 3)
    n = int(corner_vertex.max()) + 1
    n_edges = (3 * nf) // 2
    if n - n_edges + nf != 2:
        raise MetricError(
            f"glued surface is not a sphere: V-E+F = {n - n_edges + nf}"
        )

    # A triangle that fails the triangle inequality (possible only in a
    # Development built without parse_development) has NaN angles, which
    # fail the deficit band below.
    angles = kernels.scatter_add(n, corner_vertex.ravel(), kernels.tri_angles(dev.sides).ravel())

    deficits = 2.0 * math.pi - angles
    bad = [
        f"vertex {v}: cone angle {float(angles[v])!r} (deficit {float(deficits[v])!r}) "
        "outside (0, 2*pi)"
        for v in range(n)
        if not (0.0 < deficits[v] < 2.0 * math.pi)
    ]
    if bad:
        raise MetricError("; ".join(bad))

    total = float(deficits.sum())
    if abs(total - 4.0 * math.pi) > GAUSS_BONNET_TOL:
        raise MetricError(f"deficit sum {total!r} differs from 4*pi")

    return PolyhedralMetric(
        development=dev,
        corner_vertex=corner_vertex,
        cone_angles=angles,
        deficits=deficits,
    )
