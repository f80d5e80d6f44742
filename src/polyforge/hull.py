"""Producing developments from actual polytopes.

The roundtrip path: sample points, take their convex hull, read off the
intrinsic metric of the boundary (triangle side lengths from the points,
gluings from the vertex labels), and hand that development to the
reconstruction pipeline.  The output must match the hull up to
congruence.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .surface import Development


def development_from_triangles(points, corners):
    """Build a Development from (k, 3) points and (m, 3) vertex labels.

    Triangle t has corners ``points[corners[t]]``; the label order fixes
    its orientation.  Slot 3t + s, side s of triangle t, runs from the
    label of its tail corner to that of its head corner
    (``kernels.side_ends``), and it is glued to the slot that runs from
    head to tail: the gluing is read off the labels exactly, and only the
    side lengths come from the points.  The triangles must form a closed
    surface, in which every directed edge appears exactly once and its
    reverse appears too.  The gluing is the development's slot table
    ``twin``, read off the sorted directed edges.
    """
    corners = np.asarray(corners)
    if corners.ndim != 2 or corners.shape[1] != 3:
        raise ValueError("expected an (m, 3) array of corner labels")
    points = np.asarray(points, dtype=float)
    tail, head = corners.ravel()[kernels.side_ends(np.arange(corners.size))]
    sides = np.linalg.norm(points[head] - points[tail], axis=1).reshape(-1, 3)

    edge, reverse = tail * len(points) + head, head * len(points) + tail
    order = np.argsort(edge)
    keys = edge[order]
    if np.any(keys[1:] == keys[:-1]):
        raise ValueError("directed edge appears twice; orientation broken")
    at = np.minimum(np.searchsorted(keys, reverse), keys.size - 1)
    if np.any(keys[at] != reverse):
        raise ValueError("surface has a boundary edge")
    return Development(sides=sides, twin=order[at])


def random_sphere_development(n_points, seed=None):
    """Development of the convex hull of random points on the unit sphere.

    Returns (development, points, corner_point) where corner_point maps
    each triangle corner back to the sampled point it came from.  Points
    are in convex position, so every sample is a hull vertex.
    """
    if n_points < 4:
        raise ValueError("need at least 4 points")
    from scipy.spatial import ConvexHull  # here, so that forge solve never loads Qhull
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n_points, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)

    hull = ConvexHull(pts)
    corners = hull.simplices.astype(np.int64)
    i, j, k = corners.T
    n = np.cross(pts[j] - pts[i], pts[k] - pts[i])
    # Outward normal from the facet equation; flip to counterclockwise.
    inward = np.einsum("fx,fx->f", n, hull.equations[:, :3]) < 0
    corners[inward] = corners[inward][:, [0, 2, 1]]
    return development_from_triangles(pts, corners), pts, corners
