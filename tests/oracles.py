"""Checks and reference formulas that the tests need and the pipeline does
not: corner-table invariants, cone angles, the validated construction of
a generalized polytope, its total height, the dense curvature Jacobian,
the scalar badness formula, the one-shot edge badness and pyramid
kernels that the package splits into a cached half and a per-call half,
the scalar quad layout and convexity check, the flip loop that flips one
edge at a time and rechecks every edge, the two-face dihedral of an
edge, the canonical form of the
essential-edge tesselation, the face-by-face unfold, the convexity check
of an embedding, the per-face apex distance and the apex-inside test.

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
from polyforge.kernels import (
    _DIH_P,
    _DIH_Q,
    _DIH_W1,
    _DIH_W2,
    _NEXT,
    _NEXT2,
    REFINE_REL,
    _angle_opp,
)
from polyforge.polytope import solve_pyramids
from polyforge.surface import Development, build_metric
from polyforge.triangulation import (
    BAD_TOL,
    CONVEXITY_TOL,
    CornerMesh,
    _badness,
    _quads,
    badness_scan,
    merge_regions,
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


# -- one-shot kernels -------------------------------------------------------
#
# ``kernels.face_pyramids`` and ``kernels.edge_badness`` in one piece,
# without the radius-independent halves (``kernels.pyramid_base`` and
# ``kernels.quad_frame``) that a mesh keeps in its cache.  The split
# kernels must match them bit for bit.


def _dot3(u, v):
    """Dot product over the leading axis of length 3, summed left to right
    as ``np.sum`` reduces a row of three."""
    return (u[0] * v[0] + u[1] * v[1]) + u[2] * v[2]


def face_pyramids(ell, rad):
    """Solve every apex pyramid over the given faces.

    Parameters
    ----------
    ell : (F, 3) float array of base side lengths (side s opposite corner s).
    rad : (F, 3) float array of apex distances per corner.

    Returns
    -------
    dict of arrays:
      ok      (F,) int8: 1 solved, 0 needs high-precision refinement,
              -1 no such pyramid (negative squared altitude or bad base).
      alt2    (F,) squared apex altitude over the base plane.
      rho_t   (F, 3) base-edge/apex angle at the tail corner of side s.
      rho_h   (F, 3) same at the head corner.
      phi     (F, 3) apex angle subtended by side s.
      alpha   (F, 3) dihedral angle along base side s.
      omega   (F, 3) dihedral angle along the apex edge to corner c.

    A face flagged 0 has all of its angle entries unreliable; callers
    recompute those rows at extended precision.  A face flagged -1 is a
    certificate that the pyramid does not exist in exact arithmetic *if*
    the failure margin is resolvable in doubles; margins inside the
    refinement band are flagged 0 instead.
    """
    ell = np.asarray(ell, dtype=np.float64)
    rad = np.asarray(rad, dtype=np.float64)
    nf = ell.shape[0]

    l0, l1, l2 = ell[:, 0], ell[:, 1], ell[:, 2]
    q0, q1, q2 = rad[:, 0] ** 2, rad[:, 1] ** 2, rad[:, 2] ** 2
    scale = np.max(np.concatenate([ell * ell, rad * rad], axis=1), axis=1)

    # Base triangle in the plane: corners P0=(0,0), P1=(l2,0), P2=(x2,y2).
    with np.errstate(invalid="ignore", divide="ignore"):
        x2 = (l1 * l1 + l2 * l2 - l0 * l0) / (2.0 * l2)
        y2sq = l1 * l1 - x2 * x2
        y2 = np.sqrt(np.maximum(y2sq, 0.0))

        # Apex from the three squared distances.
        xa = (q0 - q1 + l2 * l2) / (2.0 * l2)
        ya = (q0 - q2 + l1 * l1 - 2.0 * xa * x2) / (2.0 * y2)
        alt2 = q0 - xa * xa - ya * ya

    ok = np.ones(nf, dtype=np.int8)
    thin_base = y2sq <= REFINE_REL * scale
    low_apex = alt2 <= REFINE_REL * scale
    ok[np.isnan(alt2) | thin_base | low_apex] = 0
    # Clearly impossible in doubles (and the base is healthy enough that
    # the computed altitude is trustworthy): squared altitude far below 0.
    ok[(alt2 <= -REFINE_REL * scale) & ~thin_base] = -1

    alt = np.sqrt(np.maximum(alt2, 0.0))

    # All nine Euclidean angles in one call: the intrinsic slant angles per
    # side from the side's flat triangle (r_tail, r_head, ell).  Computing
    # them from lengths keeps the two faces sharing an edge bit-for-bit
    # consistent.
    r_t, r_h = rad[:, _NEXT], rad[:, _NEXT2]
    ang = _angle_opp(
        np.concatenate([r_h, r_t, ell], axis=1),
        np.concatenate([r_t, r_h, r_t], axis=1),
        np.concatenate([ell, ell, r_h], axis=1),
    )

    # Dihedral angles need the spatial frame: pts[k, i, f] is coordinate
    # k of point i (base corners 0, 1, 2 and the apex 3) of face f.
    pts = np.zeros((3, 4, nf))
    pts[0, 1] = l2
    pts[0, 2] = x2
    pts[1, 2] = y2
    pts[0, 3] = xa
    pts[1, 3] = ya
    pts[2, 3] = alt
    p = pts[:, _DIH_P]
    with np.errstate(invalid="ignore", divide="ignore"):
        edge = pts[:, _DIH_Q] - p
        edge /= np.sqrt(_dot3(edge, edge))
        wing1 = pts[:, _DIH_W1] - p
        wing2 = pts[:, _DIH_W2] - p
        wing1 -= _dot3(wing1, edge) * edge
        wing2 -= _dot3(wing2, edge) * edge
        cross = wing1[_NEXT] * wing2[_NEXT2] - wing1[_NEXT2] * wing2[_NEXT]
        dih = np.arctan2(np.sqrt(_dot3(cross, cross)), _dot3(wing1, wing2))

    return {
        "ok": ok,
        "alt2": alt2,
        "rho_t": ang[:, 0:3].copy(),
        "rho_h": ang[:, 3:6].copy(),
        "phi": ang[:, 6:9].copy(),
        "alpha": dih[0:3].T.copy(),
        "omega": dih[3:6].T.copy(),
    }


def edge_badness(l_ij, l_ik, l_jk, l_il, l_jl, q_i, q_j, q_k, q_l):
    """Weighted-Delaunay margin per edge, batched.

    The quadrilateral around each edge is laid out with the shared
    diagonal i->j on the x-axis, k above and l below.  The returned value
    is ``q_l - ext(l)`` where ext is the quadratic that takes the values
    q at i, j, k; positive means the edge is bad.  NaN marks edges whose
    quad has a flat triangle (k or l on the line of i->j) or whose value
    is not finite.
    """
    l_ij = np.asarray(l_ij, dtype=np.float64)
    args = [
        np.asarray(x, dtype=np.float64) for x in (l_ik, l_jk, l_il, l_jl, q_i, q_j, q_k, q_l)
    ]
    l_ik, l_jk, l_il, l_jl, q_i, q_j, q_k, q_l = args

    with np.errstate(invalid="ignore", divide="ignore"):
        xk = (l_ik * l_ik + l_ij * l_ij - l_jk * l_jk) / (2.0 * l_ij)
        yk2 = l_ik * l_ik - xk * xk
        yk = np.sqrt(np.maximum(yk2, 0.0))
        xl = (l_il * l_il + l_ij * l_ij - l_jl * l_jl) / (2.0 * l_ij)
        yl2 = l_il * l_il - xl * xl
        yl = -np.sqrt(np.maximum(yl2, 0.0))

        ax = (l_ij * l_ij - q_j + q_i) / (2.0 * l_ij)
        ay = (l_ik * l_ik - q_k + q_i - 2.0 * xk * ax) / (2.0 * yk)
        ext = q_i + l_il * l_il - 2.0 * (xl * ax + yl * ay)
        out = q_l - ext

    bad_rows = (yk2 <= 0.0) | (yl2 <= 0.0) | ~np.isfinite(out)
    return np.where(bad_rows, np.nan, out)


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


@dataclass
class QuadLayout:
    """The two faces adjacent to an edge, developed into the plane.

    The shared edge i->j lies on the x axis, k (the far corner on the
    edge's own face) above it, l (the far corner across) below.
    """

    labels: tuple  # (i, j, k, l) vertex labels
    pi: np.ndarray
    pj: np.ndarray
    pk: np.ndarray
    pl: np.ndarray

    @property
    def diagonal(self):
        return float(np.linalg.norm(self.pk - self.pl))


def develop_quad(mesh, f, s) -> QuadLayout:
    """Lay out the two faces adjacent to side (f, s) in the plane, one
    corner at a time: the scalar reference of ``kernels.quad_frame``.

    Works when both sides belong to the same face (the face is developed
    twice) and when some of the four corner labels agree.
    """
    f = int(f)
    s = int(s)
    g, s2 = mesh.neighbor(f, s)
    i = int(mesh.vert[f, (s + 1) % 3])
    j = int(mesh.vert[f, (s + 2) % 3])
    k = int(mesh.vert[f, s])
    l = int(mesh.vert[g, s2])

    lij = float(mesh.ell[f, s])
    lik = float(mesh.ell[f, (s + 2) % 3])
    ljk = float(mesh.ell[f, (s + 1) % 3])
    lil = float(mesh.ell[g, (s2 + 1) % 3])
    ljl = float(mesh.ell[g, (s2 + 2) % 3])

    def third_point(da, db, sign):
        x = (da * da + lij * lij - db * db) / (2.0 * lij)
        y2 = da * da - x * x
        if y2 <= 0.0:
            raise TriangleError(f"cannot develop quad at edge ({f}, {s}): flat triangle")
        return np.array([x, sign * math.sqrt(y2)])

    return QuadLayout(
        labels=(i, j, k, l),
        pi=np.zeros(2),
        pj=np.array([lij, 0.0]),
        pk=third_point(lik, ljk, +1.0),
        pl=third_point(lil, ljl, -1.0),
    )


def quad_is_strictly_convex(quad: QuadLayout) -> bool:
    """Every interior angle of the developed quad clears pi by
    CONVEXITY_TOL."""
    ring = [quad.pi, quad.pl, quad.pj, quad.pk]
    for idx in range(4):
        e_in = ring[idx] - ring[idx - 1]
        e_out = ring[(idx + 1) % 4] - ring[idx]
        turn = math.atan2(
            e_in[0] * e_out[1] - e_in[1] * e_out[0], float(np.dot(e_in, e_out))
        )
        if turn <= CONVEXITY_TOL:
            return False
    return True


def badness(mesh, q, f, s):
    """Badness of the edges with handles (f[e], s[e]), read off the mesh
    as it is, without its cache."""
    return _badness(_quads(mesh, f, s), np.asarray(q, dtype=float))


def edge_theta(mesh, r, f, s):
    """Total dihedral along edge (f, s) from a solve of its two faces
    alone, as the solver's flip hook made it once per flip."""
    g, s2 = mesh.neighbor(f, s)
    faces = np.array([f, g])
    batch = solve_pyramids(mesh.ell[faces], np.asarray(r)[mesh.vert[faces]])
    return float(batch.alpha[0, s] + batch.alpha[1, s2])


def weighted_delaunay(mesh, q, max_flips=None, on_flip=None):
    """A flip loop that flips one edge at a time, in FIFO order, and
    rechecks every popped edge on its own with the scalar quad layout.
    ``triangulation.weighted_delaunay`` flips in rounds instead; both
    must end in the same outcome, and on generic weights in the same
    triangulation.  Like the loop it replaced, it applies one flip past
    ``max_flips`` before it raises."""
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
        blocked = g == f or not quad_is_strictly_convex(develop_quad(mesh, f, s))
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
