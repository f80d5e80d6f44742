"""Producing developments from actual polytopes.

The roundtrip path: sample points, take their convex hull, read off the
intrinsic metric of the boundary (triangle side lengths plus gluings),
and hand that development to the reconstruction pipeline.  The output
must match the hull up to congruence.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import ConvexHull

from .surface import Development


def development_from_triangles(tris):
    """Build a Development from (m, 3, 3) triangle corner coordinates.

    Triangles must form a closed surface: every directed edge appears
    exactly once and matches its reverse in another triangle (or the
    same one).  Corner order fixes the orientation; side lengths come
    from the coordinates.
    """
    tris = np.asarray(tris, dtype=float)
    if tris.ndim != 3 or tris.shape[1:] != (3, 3):
        raise ValueError("expected an (m, 3, 3) array of triangle corners")
    m = tris.shape[0]

    sides = np.empty((m, 3))
    for s in range(3):
        sides[:, s] = np.linalg.norm(
            tris[:, (s + 2) % 3] - tris[:, (s + 1) % 3], axis=1
        )

    def key(p):
        return tuple(np.round(p, 9))

    directed = {}
    for t in range(m):
        for s in range(3):
            tail = key(tris[t, (s + 1) % 3])
            head = key(tris[t, (s + 2) % 3])
            if (tail, head) in directed:
                raise ValueError("directed edge appears twice; orientation broken")
            directed[(tail, head)] = (t, s)

    gluings = []
    seen = set()
    for (tail, head), (t, s) in directed.items():
        if (t, s) in seen:
            continue
        try:
            t2, s2 = directed[(head, tail)]
        except KeyError:
            raise ValueError("surface has a boundary edge") from None
        gluings.append(((t, s), (t2, s2)))
        seen.add((t, s))
        seen.add((t2, s2))
    return Development(sides=sides, gluings=tuple(gluings))


def random_sphere_development(n_points, seed=None):
    """Development of the convex hull of random points on the unit sphere.

    Returns (development, points, corner_point) where corner_point maps
    each triangle corner back to the sampled point it came from.  Points
    are in convex position, so every sample is a hull vertex.
    """
    if n_points < 4:
        raise ValueError("need at least 4 points")
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n_points, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)

    hull = ConvexHull(pts)
    tris = []
    corners = []
    for simplex, eq in zip(hull.simplices, hull.equations):
        i, j, k = simplex
        n = np.cross(pts[j] - pts[i], pts[k] - pts[i])
        # Outward normal from the facet equation; flip to counterclockwise.
        if n @ eq[:3] < 0:
            i, j, k = i, k, j
        tris.append(np.stack([pts[i], pts[j], pts[k]]))
        corners.append((i, j, k))
    dev = development_from_triangles(np.stack(tris))
    return dev, pts, np.array(corners, dtype=np.int64)
