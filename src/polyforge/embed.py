"""Reconstruction in R^3: unfold the final triangulation one
breadth-first level at a time, folding along each edge by its dihedral
angle.

Face 0 sits in the z = 0 plane, counterclockwise from +z, with the
body's interior below; each breadth-first level of faces is then placed
at once, with array arithmetic, by unfolding across the edges it shares
with the level before (``_unfold``).  A flat body, whose dihedrals all
lie within ``polytope.FOLD_TOL`` of 0 or pi, is unfolded with them
snapped to exactly 0 and pi, so a doubly covered polygon closes to
rounding level.  Its fold edges are the polygon's outline, and the
result keeps them (``EmbeddedPolytope.rim``) for
``apex_boundary_distance``, so no convex hull is taken.
Per-vertex positions are the means of their per-face placements (the
spread is the closure residual).  The path lands at kappa = 0
(``solver``), so those means already reproduce the convex polytope to
rounding level; nothing is fitted afterwards.  The apex is the
kappa(1)-weighted Fermat point of the vertices (``solve_apex``): the
least-squares fit of |v_i - a| = r_i to the solve's final radii, in the
vertices' plane on a flat body, then two Newton steps, which leave its
residual ``apex_residual`` at rounding level, about 1e-16.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import EmbedError
from .kernels import _NEXT, _NEXT2
from .triangulation import merge_regions

CLOSURE_TOL = 1e-6  # * diameter
DEGENERATE_VOL_TOL = 1e-8  # * diameter^3
MERGE_TOL = 1e-6  # |pi - theta| below this merges the faces
APEX_NEWTON_STEPS = 2  # after the radii fit (solve_apex)


@dataclass
class EmbeddedPolytope:
    vertices: np.ndarray  # (n, 3) averaged positions
    faces: tuple  # triangles, outward counterclockwise
    closure_residual: float
    diameter: float
    volume: float  # signed; positive for outward orientation
    degenerate: bool
    merged_faces: tuple | None = None  # polygons after coplanar merging
    apex: np.ndarray | None = None  # set once solve_apex has run
    # A flat body's outline: the (tail, head) labels of its fold slots,
    # both slots of each fold edge.  None for a body that is not flat.
    rim: tuple | None = None

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    def as_json(self):
        import json

        doc = {
            "vertices": [[float(x) for x in row] for row in self.vertices],
            "faces": [list(face) for face in self.faces],
            "merged_faces": None
            if self.merged_faces is None
            else [list(face) for face in self.merged_faces],
            "apex": None if self.apex is None else [float(x) for x in self.apex],
            "volume": float(self.volume),
            "degenerate": bool(self.degenerate),
            "closure_residual": float(self.closure_residual),
        }
        return json.dumps(doc, sort_keys=True, indent=2)


def place_faces(P, merge_coplanar=False):
    """Develop the polytope's boundary into R^3.

    ``P`` is a solved generalized polytope whose curvatures are already
    negligible.  Its dihedrals are snapped to exactly 0 or pi when the
    body is flat (``CurvatureReport.folds``).  Raises EmbedError when
    the development fails to close up to CLOSURE_TOL, when a snapped
    sheet is folded over, or when the final mesh still carries a loop.
    """
    mesh = P.mesh
    rep = P.curvature_report()
    theta = rep.theta
    # Side s runs from corner (s+1)%3 to corner (s+2)%3.  The first loop
    # slot in (f, s) order is its edge's canonical slot.
    tail, head = mesh.vert[:, [1, 2, 0]], mesh.vert[:, [2, 0, 1]]
    loop = tail == head
    if loop.any():
        raise EmbedError(
            f"final mesh has a geodesic loop at vertex {tail[loop][0]}; "
            "curvature is not small enough"
        )

    # A doubly covered convex polygon has dihedrals exactly 0 and pi, so
    # the snapped layout of a flat body is its realization; the closure
    # and per-sheet orientation checks still vet it.
    fold = rep.folds()
    flat = fold is not None
    if flat:
        theta = np.where(fold, 0.0, math.pi)
    pos, _ = _unfold(mesh, theta)

    n = mesh.n_vertices
    corner = mesh.vert.ravel()
    # Coordinate c of vertex v sums at 3 v + c.
    sums = kernels.scatter_add(3 * n, (3 * corner[:, None] + np.arange(3)).ravel(), pos.ravel())
    counts = kernels.scatter_add(n, corner, np.ones(corner.size))
    verts = sums.reshape(n, 3) / counts[:, None]

    spread = _closure_spread(pos.reshape(-1, 3), corner)
    diam = _diameter(verts)
    if spread > CLOSURE_TOL * diam:
        raise EmbedError(
            f"development does not close: spread {spread!r} vs diameter {diam!r}"
        )
    if flat:
        _check_sheets(mesh, pos, fold)

    faces = tuple(map(tuple, mesh.vert.tolist()))
    volume = _signed_volume(verts, faces)
    degenerate = abs(volume) <= DEGENERATE_VOL_TOL * diam**3

    merged = None
    if merge_coplanar:
        merged = []
        for region in merge_regions(mesh, np.abs(math.pi - theta) <= MERGE_TOL):
            if len(region.cycles) != 1:
                raise EmbedError("merged face is not a disk")
            cycle = region.cycles[0]
            merged.append(
                tuple(int(mesh.vert[f, (s + 1) % 3]) for f, s in cycle)
            )
        merged = tuple(merged)

    return EmbeddedPolytope(
        vertices=verts,
        faces=faces,
        closure_residual=spread,
        diameter=diam,
        volume=volume,
        degenerate=degenerate,
        merged_faces=merged,
        rim=(tail[fold], head[fold]) if flat else None,
    )


def _rows_dot(x, y):
    """Row-wise dot products of two (k, 3) arrays, as stacked (1, 3) @
    (3, 1) products: each is the dot that ``@`` and ``np.linalg.norm``
    take on single 3-vectors, bit for bit."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _rows_unit(v):
    return v / np.sqrt(_rows_dot(v, v))[:, None]


def _unfold(mesh, theta):
    """Corner positions (nf, 3, 3) and outward normals (nf, 3) of the
    faces unfolded across their dihedrals ``theta`` (nf, 3).

    Face 0 sits in the z = 0 plane with normal +z.  The breadth-first
    tree is found first, in plain Python: the frontier's sides are
    visited in (frontier order, side) order and the first claim on each
    unplaced face wins, which is the tree a face-by-face FIFO builds.
    Then each level is placed at once.  A face g across side s of f is
    hinged on the shared edge a -> b of f: w_in is the unit vector in
    f's plane, perpendicular to the edge and into f, and with psi = pi -
    theta[f, s] g's plane holds

        w_out = -w_in cos psi - n_f sin psi,   n_g = n_f cos psi - w_in sin psi.

    Its third corner lies ap along the edge from b and bp along w_out,
    from g's own side lengths; both are taken for every slot at once.
    The cosines and sines are ``math``'s, one per face, and the dots are
    ``_rows_dot``'s, so every position is the one the face-by-face loop
    computes.  Everything that does not depend on an earlier level is
    gathered for the whole tree before the first level is placed, since a
    flat polygon's tree has about one level per vertex."""
    nf = mesh.n_faces
    ell = mesh.ell
    # Corner s2 of face g lies ap along side s2 from the side's tail
    # corner (s2 + 1) % 3, toward its head, and bp off the side: side
    # (s2 + 2) % 3 joins the tail corner to corner s2.
    ap, h2 = kernels.corner_layout(ell, ell[:, _NEXT2], ell[:, _NEXT])
    bp = np.sqrt(np.where(h2 < 0.0, 0.0, h2))  # max(h2, 0.0), -0.0 and all

    # Slot 3 f + s of each tree edge, f the placed face; ends[i] closes
    # level i + 1.
    adj = (mesh.twin // 3).reshape(nf, 3).tolist()
    placed = [False] * nf
    placed[0] = True
    slots, ends = [], []
    frontier = [0]
    while frontier:
        claimed = []
        for f in frontier:
            for s, g in enumerate(adj[f]):
                if not placed[g]:
                    placed[g] = True
                    slots.append(3 * f + s)
                    claimed.append(g)
        ends.append(len(slots))
        frontier = claimed

    # Corner c of face f is row 3 f + c; slot 3 f + s hinges on the
    # corners tail[3 f + s] -> head[3 f + s] and faces corner 3 f + s.
    corner = 3 * np.arange(nf)[:, None]
    tail = (corner + _NEXT).ravel()
    head = (corner + _NEXT2).ravel()
    own = np.array(slots, dtype=np.intp)
    twin = mesh.twin[own]
    face, across = own // 3, twin // 3
    own_tail, own_head = tail[own], head[own]
    twin_tail, twin_head = tail[twin], head[twin]
    ap_twin, bp_twin = ap.ravel()[twin][:, None], bp.ravel()[twin][:, None]
    psi = (math.pi - theta.ravel()[own]).tolist()
    cos = np.array([math.cos(x) for x in psi])[:, None]
    sin = np.array([math.sin(x) for x in psi])[:, None]

    pos = np.full((3 * nf, 3), np.nan)
    normal = np.full((nf, 3), np.nan)
    pos[0] = (0.0, 0.0, 0.0)
    pos[1] = (ell[0, 2], 0.0, 0.0)
    pos[2] = (ap[0, 2], bp[0, 2], 0.0)
    normal[0] = (0.0, 0.0, 1.0)

    lo = 0
    for hi in ends[:-1]:
        level = slice(lo, hi)
        lo = hi
        # g sees the edge a -> b reversed: its tail corner lies at b.
        a = pos[own_tail[level]]
        b = pos[own_head[level]]
        u = _rows_unit(b - a)
        w_in = pos[own[level]] - a
        w_in = _rows_unit(w_in - _rows_dot(w_in, u)[:, None] * u)
        n_f = normal[face[level]]
        c, s = cos[level], sin[level]
        w_out = -w_in * c - n_f * s
        pos[twin_tail[level]] = b
        pos[twin_head[level]] = a
        pos[twin[level]] = b + ap_twin[level] * (-u) + bp_twin[level] * w_out
        normal[across[level]] = n_f * c - w_in * s
    return pos.reshape(nf, 3, 3), normal


def _check_sheets(mesh, pos, fold):
    """Raise EmbedError unless every sheet of a flat layout keeps one
    orientation.  The sheets are the components of the faces joined
    across the slots not in ``fold``; face 0 lies in the z = 0 plane, so
    the z component of a face's edge cross product is its signed area in
    that plane.  The message names the smallest face of the first sheet,
    in order of smallest face, whose areas take both signs."""
    area = np.cross(pos[:, 1] - pos[:, 0], pos[:, 2] - pos[:, 0])[:, 2]
    slots = np.flatnonzero(~fold)
    sheet = kernels.components(mesh.n_faces, slots // 3, mesh.twin[slots] // 3)
    n = int(sheet.max()) + 1
    folded = (np.bincount(sheet[area > 0.0], minlength=n) > 0) & (
        np.bincount(sheet[area < 0.0], minlength=n) > 0
    )
    if folded.any():
        face = int(np.argmax(sheet == np.argmax(folded)))
        raise EmbedError(f"flat layout folds the sheet of face {face} over")


def _closure_spread(points, labels):
    """Largest distance between two corner placements of one vertex.

    Sorting the corners by vertex puts each vertex's placements in a
    run; pairs ``gap`` apart in the sorted order are compared at once,
    for every gap up to the longest run.  sqrt is monotone, so the root
    of the largest squared distance is the largest distance."""
    order = np.argsort(labels, kind="stable")
    p, lab = points[order], labels[order]
    best = 0.0
    for gap in range(1, len(lab)):
        same = lab[gap:] == lab[:-gap]
        if not same.any():
            break
        diffs = p[gap:][same] - p[:-gap][same]
        best = max(best, float((diffs**2).sum(axis=1).max()))
    return math.sqrt(best)


_DIAMETER_BLOCK = 64  # rows of the distance matrix formed at once


def _diameter(verts):
    """Largest vertex distance, from blocks of rows of the upper
    triangle of the squared-distance matrix.  The squares are summed
    x + y + z, in the order ``sum(axis=1)`` uses on a row of three."""
    x, y, z = (np.ascontiguousarray(verts[:, k]) for k in range(3))
    best = 0.0
    for lo in range(0, len(verts), _DIAMETER_BLOCK):
        hi = lo + _DIAMETER_BLOCK
        d2 = (
            (x[lo:] - x[lo:hi, None]) ** 2
            + (y[lo:] - y[lo:hi, None]) ** 2
            + (z[lo:] - z[lo:hi, None]) ** 2
        )
        best = max(best, float(d2.max()))
    return math.sqrt(best)


def _signed_volume(verts, faces):
    """Six times the volume is the sum of one determinant per face, taken
    about the centroid.  The determinants are summed in face order, as
    ``cumsum`` does; ``np.sum`` would pair them up instead."""
    corners = verts[np.array(faces)] - verts.mean(axis=0)
    return float(np.cumsum(np.linalg.det(corners))[-1]) / 6.0


@dataclass
class ApexSolve:
    point: np.ndarray
    residual: float  # |sum of weighted unit directions| / sum of weights
    iterations: int  # Newton steps, always APEX_NEWTON_STEPS


def solve_apex(embedded: EmbeddedPolytope, r, weights) -> ApexSolve:
    """The weighted Fermat point of the vertices: the a that minimizes
    f(a) = sum_i w_i |v_i - a|, with the weights w = kappa(1).

    The radii ``r`` are the distances from the polytope's apex to its
    vertices.  The start fits |v_i - a|^2 = r_i^2 by least squares (the
    normal equations); differenced against the mean, with c_i = v_i - vbar
    and b = a - vbar,

        2 c_i . b = |c_i|^2 - mean |c|^2 - (r_i^2 - mean r^2).

    On a flat body (``rim`` set) b is taken in the vertices' plane
    (``_plane``), and the differencing cancels the apex height.  The
    radii of a landed path are one of the family of apex positions that
    closes the body (``solver``), so the fit misses the Fermat point,
    most on thin bodies; two Newton steps on f, with the Hessian
    sum_i (w_i / d_i) (I - u_i u_i^T) and u_i = (v_i - a) / d_i, converge
    quadratically from there to rounding.  The residual is
    |sum_i w_i u_i| / sum_i w_i, about 1e-16.
    """
    verts = embedded.vertices
    w = np.asarray(weights, dtype=float)
    if np.any(w <= 0.0):
        raise ValueError("weights must be positive")
    r2 = np.asarray(r, dtype=float) ** 2
    if embedded.rim is None:
        center, plane = verts.mean(axis=0), np.eye(3)
    else:
        center, plane = _plane(verts)
    c = (verts - center) @ plane.T
    c2 = _rows_dot(c, c)
    rhs = (c2 - c2.mean()) - (r2 - r2.mean())
    a = center + np.linalg.solve(2.0 * (c.T @ c), c.T @ rhs) @ plane

    def directions(a):
        d = verts - a
        dist = np.sqrt(_rows_dot(d, d))
        return d / dist[:, None], w / dist

    for _ in range(APEX_NEWTON_STEPS):
        u, wd = directions(a)
        hess = wd.sum() * np.eye(3) - (wd[:, None] * u).T @ u
        a = a + np.linalg.solve(hess, w @ u)
    u, _ = directions(a)
    residual = float(np.linalg.norm(w @ u)) / float(w.sum())
    return ApexSolve(point=a, residual=residual, iterations=APEX_NEWTON_STEPS)


def congruence_check(verts_a, verts_b):
    """RMS deviation after the best alignment of matching vertices by a
    rigid motion or a reflection.

    Accepts EmbeddedPolytope instances or raw (n, 3) arrays with the same
    vertex labelling.  Returns (rms, reflected).
    """
    A = np.asarray(getattr(verts_a, "vertices", verts_a), dtype=float)
    B = np.asarray(getattr(verts_b, "vertices", verts_b), dtype=float)
    if A.shape != B.shape:
        raise ValueError("vertex sets differ in shape")
    Ac = A - A.mean(axis=0)
    Bc = B - B.mean(axis=0)

    def rms_for(flip):
        Bx = Bc * np.array([1.0, 1.0, -1.0]) if flip else Bc
        h = Ac.T @ Bx
        u, _, vt = np.linalg.svd(h)
        d = np.sign(np.linalg.det(u @ vt))
        rot = u @ np.diag([1.0, 1.0, d]) @ vt
        return float(np.sqrt(((Ac - Bx @ rot.T) ** 2).sum() / len(A)))

    best, alt = rms_for(False), rms_for(True)
    return (alt, True) if alt < best else (best, False)


def apex_boundary_distance(embedded: EmbeddedPolytope, apex):
    """Distance from the apex to the boundary of the body.

    For full-dimensional bodies: the least distance to a face plane,
    skipping faces of zero area.  For flat ones, those ``place_faces``
    laid out with their folds snapped: the in-plane distance to the
    polygon's boundary, whose edges are the fold edges (``rim``), in the
    plane of the vertices' two leading singular vectors.  ``rim`` holds
    both slots of each fold edge, and the two directions round
    differently; each edge is measured once, in the direction that runs
    counterclockwise around the centroid in that plane, the order in
    which Qhull lists a 2-D hull.

    The norms and dot products are ``_rows_dot``'s, which give the bits
    of ``np.linalg.norm`` and ``@`` on single vectors; an einsum or a
    row sum need not.
    """
    verts = embedded.vertices
    a = np.asarray(apex, dtype=float)
    if embedded.rim is None:
        vi, vj, vk = np.moveaxis(verts[np.array(embedded.faces)], 1, 0)
        nv = np.cross(vj - vi, vk - vi)
        norm = np.sqrt(_rows_dot(nv, nv))
        height = np.abs(_rows_dot(a - vi, nv))
        keep = norm != 0.0
        return float((height[keep] / norm[keep]).min(initial=np.inf))
    center, plane = _plane(verts)
    p2 = (verts - center) @ plane.T
    a2 = (a - center) @ plane.T
    tail, head = embedded.rim
    p = p2[tail]
    e = p2[head] - p
    ccw = e[:, 1] * p[:, 0] - e[:, 0] * p[:, 1] > 0.0  # the centroid is 0
    p, e = p[ccw], e[ccw]
    t = np.clip(_rows_dot(a2 - p, e) / _rows_dot(e, e), 0.0, 1.0)
    d = a2 - (p + t[:, None] * e)
    return float(np.sqrt(_rows_dot(d, d)).min())


def _plane(verts):
    """The centroid of the vertices of a flat body and the (2, 3)
    orthonormal basis of their plane: the two leading right singular
    vectors of the centered vertices."""
    center = verts.mean(axis=0)
    _, _, vt = np.linalg.svd(verts - center)
    return center, vt[:2]


def as_obj(embedded: EmbeddedPolytope):
    """Wavefront OBJ text; faces counterclockwise seen from outside.  The
    merged faces are written when ``place_faces`` merged them."""
    faces = embedded.merged_faces if embedded.merged_faces is not None else embedded.faces
    flip = embedded.volume < 0 and not embedded.degenerate
    lines = ["# polyforge output", f"# faces: {len(faces)}"]
    for x, y, z in embedded.vertices:
        lines.append(f"v {x:.17g} {y:.17g} {z:.17g}")
    for face in faces:
        cycle = tuple(reversed(face)) if flip else face
        lines.append("f " + " ".join(str(v + 1) for v in cycle))
    return "\n".join(lines) + "\n"
