"""Checks and reference formulas that the tests need and the pipeline does
not: corner-table invariants, cone angles, the validated construction of
a generalized polytope, its total height, the dense curvature Jacobian,
the scalar badness formula, the flip loop that rechecks every edge, the
canonical form of the essential-edge tesselation, the face-by-face
unfold, the convexity check of an embedding, the per-face apex distance
and the apex-inside test.

This module is a test oracle: nothing in the package imports it.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from polyforge import kernels
from polyforge.embed import EmbeddedPolytope, _planar_hull
from polyforge.errors import InadmissibleWeightsError, PyramidError, TriangleError
from polyforge.jacobian import BandJacobian, assemble
from polyforge.surface import Development, build_metric
from polyforge.triangulation import (
    BAD_TOL,
    CornerMesh,
    badness,
    badness_scan,
    merge_regions,
    quad_is_strictly_convex,
)

# Glued sides of a valid mesh agree in length to this relative amount.
LENGTH_AGREE_REL = 1e-12

# An edge dihedral may exceed pi by this much in a convex polytope.
THETA_TOL = 1e-9

# A good edge whose badness is within FLAT_TOL * max(1, |q|_inf) of zero
# is inessential: the faces on its two sides lie in one tesselation cell.
FLAT_TOL = 1e-9


# -- meshes --------------------------------------------------------------


def mesh_of(dev: Development) -> CornerMesh:
    """The corner table of a development's own triangulation."""
    return CornerMesh.from_metric(build_metric(dev))


def cone_angles(mesh):
    """Total corner angle accumulated at each vertex."""
    out = np.zeros(mesh.n_vertices)
    np.add.at(out, mesh.vert.ravel(), kernels.tri_angles(mesh.ell).ravel())
    return out


def mesh_deficits(mesh):
    """2*pi minus the cone angles; flips preserve them."""
    return 2.0 * math.pi - cone_angles(mesh)


def validate_mesh(mesh):
    """Check the corner-table invariants; raises AssertionError."""
    nf = mesh.n_faces
    assert mesh.vert.shape == (nf, 3)
    seen = np.zeros(mesh.n_vertices, dtype=bool)
    seen[mesh.vert.ravel()] = True
    assert seen.all(), "vertex labels are not contiguous"
    for f in range(nf):
        for s in range(3):
            g, s2 = mesh.neighbor(f, s)
            assert 0 <= g < nf and 0 <= s2 < 3, "dangling adjacency"
            assert mesh.neighbor(g, s2) == (f, s), "adjacency not an involution"
            assert (g, s2) != (f, s), "side glued to itself"
            la, lb = mesh.ell[f, s], mesh.ell[g, s2]
            assert abs(la - lb) <= LENGTH_AGREE_REL * max(la, lb), (
                f"edge length mismatch at ({f}, {s})"
            )
            ta, ha = mesh.edge_endpoints(f, s)
            tb, hb = mesh.edge_endpoints(g, s2)
            assert (ta, ha) == (hb, tb), "edge direction not reversed across gluing"
    euler = mesh.n_vertices - mesh.n_edges + nf
    assert euler == 2, f"not a sphere: V-E+F = {euler}"
    assert np.isfinite(kernels.tri_angles(mesh.ell)).all(), "degenerate face"


# -- generalized polytopes -------------------------------------------------


def weights(P):
    """The weights q = r^2 for which P's triangulation is weighted-Delaunay."""
    return P.r**2


def validate_polytope(P):
    """Weighted-Delaunay goodness, then dihedral convexity (existence is
    enforced on construction); raises PyramidError, else returns P."""
    q = weights(P)
    _, vals = badness_scan(P.mesh, q)
    scale = max(1.0, float(q.max()))
    worst = float(vals.max())
    if worst > BAD_TOL * scale:
        raise PyramidError(
            f"triangulation is not weighted-Delaunay for q = r^2 "
            f"(worst margin {worst!r})"
        )
    if np.any(P.curvature_report().theta > math.pi + THETA_TOL):
        raise PyramidError("edge dihedral exceeds pi: not convex")
    return P


def total_height(P):
    """sum r*kappa + sum ell*(pi - theta); its gradient in r is kappa."""
    rep = P.curvature_report()
    f, s = P.mesh.edges()
    return float(np.dot(P.r, rep.kappa) + np.dot(P.mesh.ell[f, s], math.pi - rep.theta[f, s]))


# -- the curvature Jacobian ------------------------------------------------


def unpack_band(J):
    """The dense matrix, in vertex labels, of a ``BandJacobian``."""
    k, n = J.k, J.ab.shape[1]
    q = np.broadcast_to(np.arange(n), (2 * k + 1, n))
    p = q + np.arange(-k, k + 1)[:, None]
    inside = (p >= 0) & (p < n)
    out = np.zeros((n, n))
    out[J.order[p[inside]], J.order[q[inside]]] = J.ab[k:][inside]
    return out


def band_of(J, order):
    """A dense J, in vertex labels, as a ``BandJacobian`` in ``order``,
    with the half-bandwidth of its nonzeros."""
    n = len(order)
    Jp = J[np.ix_(order, order)]
    p, q = np.nonzero(Jp)
    k = int(np.abs(p - q).max()) if p.size else 0
    ab = np.zeros((3 * k + 1, n), order="F")
    ab[2 * k + p - q, q] = Jp[p, q]
    return BandJacobian(ab=ab, k=k, order=np.asarray(order))


def dense_jacobian(P):
    """d(kappa)/d(r) as a dense matrix: ``assemble`` in the identity
    order, unpacked.  Duplicate contributions are summed in input order,
    as ``np.add.at`` sums them."""
    return unpack_band(assemble(P, np.arange(P.n_vertices)))


# -- badness ---------------------------------------------------------------


def weighted_delaunay(mesh, q, max_flips=None, on_flip=None):
    """``triangulation.weighted_delaunay`` as it was before it kept the
    initial scan's verdicts: every popped edge is rechecked on its own."""
    q = np.asarray(q, dtype=float)
    if max_flips is None:
        max_flips = 100 * mesh.n_edges**2
    scale = max(1.0, float(np.abs(q).max()))
    tol = BAD_TOL * scale

    (f, s), vals = badness_scan(mesh, q)
    if np.all(vals <= tol):
        return 0

    queue = deque(zip(f.tolist(), s.tolist()))
    flips = 0
    stalled = 0
    while queue:
        f, s = queue.popleft()
        g, s2 = mesh.neighbor(f, s)
        if badness(mesh, q, np.array([f]), np.array([s]))[0] <= tol:
            continue
        blocked = g == f or not quad_is_strictly_convex(mesh.develop_quad(f, s))
        if blocked:
            queue.append((f, s))
            stalled += 1
            if stalled > len(queue) + 1:
                raise InadmissibleWeightsError(
                    f"bad edge ({f}, {s}) cannot be flipped and no flip unblocks it"
                )
            continue

        if on_flip is not None:
            on_flip(mesh, f, s)
        mesh.flip(f, s)
        flips += 1
        stalled = 0
        if flips > max_flips:
            raise InadmissibleWeightsError(f"flip budget {max_flips} exhausted")
        for cand in ((f, 1), (f, 2), (g, 1), (g, 2)):
            queue.append(cand)
    return flips


def ext_value(p1, p2, p3, q1, q2, q3, target):
    """Value at ``target`` of the quadratic x -> |x - a|^2 + b that takes
    the values q1, q2, q3 at the non-collinear points p1, p2, p3."""
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    p3 = np.asarray(p3, dtype=float)
    target = np.asarray(target, dtype=float)
    m = 2.0 * np.stack([p2 - p1, p3 - p1])
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    scale = max(float(np.abs(m).max()) ** 2, 1e-300)
    if abs(det) <= 1e-12 * scale:
        raise TriangleError("interpolation points are (nearly) collinear")
    rhs = np.array(
        [
            p2 @ p2 - p1 @ p1 - (q2 - q1),
            p3 @ p3 - p1 @ p1 - (q3 - q1),
        ]
    )
    a = np.linalg.solve(m, rhs)
    b = q1 - float((p1 - a) @ (p1 - a))
    return float((target - a) @ (target - a)) + b


# -- tesselations ------------------------------------------------------------


@dataclass(frozen=True)
class Tesselation:
    """Canonical form of the essential-edge decomposition."""

    regions: tuple  # per region: tuple of cycles; cycle = ((vertex, nm_length), ...)
    inessential: tuple  # canonical slots of the merged edges
    digest: str

    @property
    def n_regions(self):
        return len(self.regions)


def canonical_tesselation(mesh, q):
    """Merge faces across edges where the Delaunay inequality is tight.

    All edges must already be good.  Boundary words pair the tail vertex
    label with the edge length rounded to 1e-9, and every cycle is
    rotated to its lexicographic minimum so that any triangulation of
    the same tesselation hashes identically.
    """
    q = np.asarray(q, dtype=float)
    scale = max(1.0, float(np.abs(q).max()))
    (f, s), vals = badness_scan(mesh, q)
    assert np.all(vals <= BAD_TOL * scale), "mesh is not weighted-Delaunay"

    flat = np.abs(vals) <= FLAT_TOL * scale
    flat_slots = list(zip(f[flat].tolist(), s[flat].tolist()))
    regions = merge_regions(mesh, flat_slots)

    def canonical_cycle(cycle):
        word = []
        for f, s in cycle:
            tail = int(mesh.vert[f, (s + 1) % 3])
            word.append((tail, int(round(mesh.ell[f, s] * 1e9))))
        rotations = [tuple(word[r:] + word[:r]) for r in range(len(word))]
        return min(rotations)

    canon = tuple(
        sorted(tuple(sorted(canonical_cycle(c) for c in reg.cycles)) for reg in regions)
    )
    digest = hashlib.sha256(repr(canon).encode()).hexdigest()
    return Tesselation(regions=canon, inessential=tuple(flat_slots), digest=digest)


# -- embeddings --------------------------------------------------------------


def _unit(v):
    return v / np.linalg.norm(v)


def unfold_faces(mesh, theta):
    """``embed._unfold`` as it was before it was batched: a FIFO of faces,
    each unfolding its unplaced neighbours one at a time.  Returns the
    corner positions (nf, 3, 3) and outward normals (nf, 3)."""
    nf = mesh.n_faces
    # Per-face corner positions and outward normal.
    pos = np.full((nf, 3, 3), np.nan)
    normal = np.full((nf, 3), np.nan)
    placed = np.zeros(nf, dtype=bool)

    ell = mesh.ell
    l0, l1, l2 = ell[0]
    x2 = (l1 * l1 + l2 * l2 - l0 * l0) / (2.0 * l2)
    y2 = math.sqrt(max(l1 * l1 - x2 * x2, 0.0))
    pos[0, 0] = (0.0, 0.0, 0.0)
    pos[0, 1] = (l2, 0.0, 0.0)
    pos[0, 2] = (x2, y2, 0.0)
    normal[0] = (0.0, 0.0, 1.0)
    placed[0] = True

    queue = deque([0])
    while queue:
        f = queue.popleft()
        for s in range(3):
            g, s2 = mesh.neighbor(f, s)
            if placed[g]:
                continue
            a = pos[f, (s + 1) % 3]  # tail of the shared edge in f
            b = pos[f, (s + 2) % 3]
            d = pos[f, s]
            u = _unit(b - a)
            w_in = d - a
            w_in = _unit(w_in - (w_in @ u) * u)  # into f, perpendicular to the edge
            n_f = normal[f]
            psi = math.pi - theta[f, s]
            w_out = -w_in * math.cos(psi) - n_f * math.sin(psi)
            n_g = n_f * math.cos(psi) - w_in * math.sin(psi)

            # g sees the edge reversed: its tail corner lies at b.
            l_edge = ell[g, s2]
            l_tail = ell[g, (s2 + 2) % 3]  # from g's tail corner to the new point
            l_head = ell[g, (s2 + 1) % 3]
            ap = (l_tail * l_tail + l_edge * l_edge - l_head * l_head) / (2.0 * l_edge)
            bp = math.sqrt(max(l_tail * l_tail - ap * ap, 0.0))
            pos[g, (s2 + 1) % 3] = b
            pos[g, (s2 + 2) % 3] = a
            pos[g, s2] = b + ap * (-u) + bp * w_out
            normal[g] = n_g
            placed[g] = True
            queue.append(g)
    return pos, normal


def convexity_violation(embedded: EmbeddedPolytope):
    """Worst signed distance of any vertex above any face plane.  A flat
    body has every vertex on every plane, where the sign test means
    nothing; closure already vouches for it, so it scores 0.0."""
    if embedded.degenerate:
        return 0.0
    verts = embedded.vertices
    worst = -np.inf
    for i, j, k in embedded.faces:
        nvec = np.cross(verts[j] - verts[i], verts[k] - verts[i])
        norm = float(np.linalg.norm(nvec))
        if norm == 0.0:
            continue
        d = (verts - verts[i]) @ (nvec / norm)
        worst = max(worst, float(d.max()))
    return worst


def apex_boundary_distance(embedded: EmbeddedPolytope, apex):
    """``embed.apex_boundary_distance`` of a full-dimensional body as it was
    before it was vectorized: one face at a time, zero-area faces skipped."""
    verts = embedded.vertices
    a = np.asarray(apex, dtype=float)
    best = np.inf
    for i, j, k in embedded.faces:
        nvec = np.cross(verts[j] - verts[i], verts[k] - verts[i])
        norm = float(np.linalg.norm(nvec))
        if norm == 0.0:
            continue
        best = min(best, abs(float((a - verts[i]) @ nvec)) / norm)
    return best


def apex_inside(embedded: EmbeddedPolytope, apex, tol=None):
    """Is the apex interior?  For full-dimensional bodies: strictly below
    every face plane.  For degenerate (flat) ones: in the relative
    interior of the supporting polygon."""
    verts = embedded.vertices
    a = np.asarray(apex, dtype=float)
    if tol is None:
        tol = 1e-9 * max(embedded.diameter, 1.0)
    if not embedded.degenerate:
        sign = 1.0 if embedded.volume > 0 else -1.0
        for i, j, k in embedded.faces:
            nvec = np.cross(verts[j] - verts[i], verts[k] - verts[i])
            norm = float(np.linalg.norm(nvec))
            if norm == 0.0:
                continue
            if sign * float((a - verts[i]) @ nvec) / norm > -tol:
                return False
        return True
    # Flat body: project onto its plane and test the polygon hull.
    centered = verts - verts.mean(axis=0)
    _, _, vt = np.linalg.svd(centered)
    plane = vt[:2]
    p2 = centered @ plane.T
    a2 = (a - verts.mean(axis=0)) @ plane.T
    hull = _planar_hull(p2)
    for idx in range(len(hull)):
        p, q = p2[hull[idx]], p2[hull[(idx + 1) % len(hull)]]
        e = q - p
        if e[0] * (a2[1] - p[1]) - e[1] * (a2[0] - p[0]) <= tol:
            return False
    return True
