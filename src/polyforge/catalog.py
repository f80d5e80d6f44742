"""Ready-made developments used by tests, benchmarks and the docs.

Everything here returns a validated :class:`~polyforge.surface.Development`.
Run ``python -m polyforge.catalog OUTDIR`` to dump them as JSON files.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

from .hull import development_from_triangles
from .surface import Development, twin_table


# Faces counterclockwise from outside, starting at their lowest-index
# corner.
_TETRA_FACES = ((0, 1, 2), (0, 3, 1), (0, 2, 3), (1, 3, 2))


def tetrahedron(scale=1.0):
    """Regular tetrahedron with edge length 2*sqrt(2)*scale."""
    verts = scale * np.array(
        [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
    )
    return development_from_triangles(verts, _TETRA_FACES)


# Vertex of a unit cube with index 4x + 2y + z; faces counterclockwise
# from outside, starting at their lowest-index corner.
_CUBE_FACES = (
    (0, 2, 6, 4),
    (1, 5, 7, 3),
    (0, 4, 5, 1),
    (2, 3, 7, 6),
    (0, 1, 3, 2),
    (4, 6, 7, 5),
)


def cube(scale=1.0):
    """Axis-aligned cube, each square split by a fan from its lowest corner."""
    verts = scale * np.array(
        [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]
    )
    corners = [tri for a, b, c, d in _CUBE_FACES for tri in ((a, b, c), (a, c, d))]
    return development_from_triangles(verts, corners)


def doubly_covered_triangle(a, b, c):
    """Two copies of a triangle glued along all three sides.

    The flattest convex body there is: every face angle appears twice, so
    vertex i carries deficit 2*pi - 2*alpha_i.
    """
    sides = np.array([[a, b, c], [a, c, b]], dtype=float)
    gluings = (((0, 0), (1, 0)), ((0, 1), (1, 2)), ((0, 2), (1, 1)))
    return Development(sides=sides, twin=twin_table(len(sides), gluings))


def doubly_covered_polygon(n, radius=1.0):
    """Two copies of a regular n-gon, fanned from vertex 0 and glued rim
    to rim.  Each rim vertex gets deficit 4*pi/n."""
    if n < 3:
        raise ValueError("need at least 3 sides")
    edge = 2.0 * radius * math.sin(math.pi / n)

    def diag(k):
        return 2.0 * radius * math.sin(math.pi * k / n)

    m = n - 2  # triangles per copy
    sides = np.empty((2 * m, 3))
    for i in range(m):
        # Front copy: (v0, v_{i+1}, v_{i+2}); back copy reversed.
        sides[i] = (edge, diag(i + 2), diag(i + 1))
        sides[m + i] = (edge, diag(i + 1), diag(i + 2))

    gluings = []
    for i in range(1, m):
        gluings.append(((i, 2), (i - 1, 1)))  # front diagonal v0-v_{i+1}
        gluings.append(((m + i - 1, 2), (m + i, 1)))  # back diagonal
    for i in range(m):
        gluings.append(((i, 0), (m + i, 0)))  # rim edge v_{i+1}-v_{i+2}
    gluings.append(((0, 2), (m, 1)))  # rim edge v0-v1
    gluings.append(((m - 1, 1), (2 * m - 1, 2)))  # rim edge v0-v_{n-1}
    return Development(sides=sides, twin=twin_table(len(sides), gluings))


def twisted_double_polygon(n, radius=1.0):
    """Two congruent regular n-gons glued rim to rim with a half-edge
    twist: each corner of one copy sits on an edge midpoint of the other.

    Unlike the straight double cover this body is genuinely convex
    (3-dimensional): all 2n rim points are cone vertices of deficit
    2*pi/n.  Each rim is subdivided at the midpoints and fanned from one
    corner, so no flat interior vertices appear.
    """
    if n < 3:
        raise ValueError("need at least 3 sides")
    rho = radius * math.cos(math.pi / n)  # apothem
    seg = radius * math.sin(math.pi / n)  # corner-to-midpoint rim step

    def rim_point(k):
        # Rim points alternate corner / midpoint; the fan is based at a
        # midpoint (k = 0 here) so no fan triangle is collinear.
        kk = (1 + k) % (2 * n)
        r = radius if kk % 2 == 0 else rho
        a = math.pi * kk / n
        return (r * math.cos(a), r * math.sin(a))

    def diag(k):
        x0, y0 = rim_point(0)
        xk, yk = rim_point(k)
        return math.hypot(xk - x0, yk - y0)

    m = 2 * n - 2  # fan triangles per copy
    sides = np.empty((2 * m, 3))
    for i in range(1, 2 * n - 1):
        sides[i - 1] = (seg, diag(i + 1), diag(i))  # copy A: (p0, p_i, p_{i+1})
        sides[m + i - 1] = (seg, diag(i), diag(i + 1))  # copy B, mirrored

    gluings = []
    for i in range(1, 2 * n - 2):
        gluings.append(((i - 1, 1), (i, 2)))  # A diagonal p0-p_{i+1}
        gluings.append(((m + i - 1, 2), (m + i, 1)))  # B diagonal
    # Rim: point k of copy A is point k+1 of copy B.
    gluings.append(((0, 2), (m, 0)))
    for k in range(1, 2 * n - 2):
        gluings.append(((k - 1, 0), (m + k, 0)))
    gluings.append(((m - 1, 0), (2 * m - 1, 2)))
    gluings.append(((m - 1, 1), (m, 1)))
    return Development(sides=sides, twin=twin_table(len(sides), gluings))


NAMED = {
    "tetrahedron": tetrahedron,
    "cube": cube,
    "doubled-square": lambda: doubly_covered_polygon(4),
    "doubled-hexagon": lambda: doubly_covered_polygon(6),
    "doubled-triangle": lambda: doubly_covered_triangle(1.0, 1.0, 1.2),
    "twisted-24-gon": lambda: twisted_double_polygon(24),
}


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python -m polyforge.catalog OUTDIR", file=sys.stderr)
        return 2
    out = Path(args[0])
    out.mkdir(parents=True, exist_ok=True)
    for name, make in NAMED.items():
        (out / f"{name}.json").write_text(make().to_json(indent=2) + "\n")
        print(f"wrote {out / f'{name}.json'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
