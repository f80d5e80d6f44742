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
    gluings: tuple  # of ((t, s), (t2, s2)) pairs

    @property
    def n_faces(self):
        return self.sides.shape[0]

    def to_json(self, indent=None):
        doc = {
            "triangles": [{"sides": [float(x) for x in row]} for row in self.sides],
            "gluings": [[list(a), list(b)] for a, b in self.gluings],
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


class UnionFind:
    """Disjoint sets over 0..n-1 whose representative is the smallest
    member."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            # Keep the smaller index as representative, so labels (and
            # merged regions) come out in first-appearance order.
            if rj < ri:
                ri, rj = rj, ri
            self.parent[rj] = ri


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
                    f"{a!r} vs {b!r}"
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
                violations.append(f"triangle {t}: sides {tuple(sides[t])} degenerate")
                break

    if violations:
        raise DevelopmentError(violations)

    return Development(sides=sides, gluings=tuple(pairs))


def build_metric(dev: Development) -> PolyhedralMetric:
    """Glue the development and compute the induced cone metric.

    Raises MetricError if the glued surface is not a sphere or if any
    cone angle fails convexity (deficit must lie strictly in (0, 2*pi)).
    """
    nf = dev.n_faces
    uf = UnionFind(3 * nf)
    for (t, s), (t2, s2) in dev.gluings:
        # Heads match tails: side s runs corner (s+1) -> (s+2), its glued
        # partner runs the same segment backwards.
        uf.union(t * 3 + (s + 1) % 3, t2 * 3 + (s2 + 2) % 3)
        uf.union(t * 3 + (s + 2) % 3, t2 * 3 + (s2 + 1) % 3)

    roots = [uf.find(i) for i in range(3 * nf)]
    order = sorted(set(roots))
    label_of_root = {r: i for i, r in enumerate(order)}
    corner_vertex = np.array(
        [label_of_root[roots[i]] for i in range(3 * nf)], dtype=np.int64
    ).reshape(nf, 3)

    n = len(order)
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
        f"vertex {v}: cone angle {angles[v]!r} (deficit {deficits[v]!r}) "
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
