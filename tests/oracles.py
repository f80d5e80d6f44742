"""Checks and reference formulas that the tests need and the pipeline does
not: a union-find that labels connected components, the per-corner
gluing of a development by it, corner-table
invariants, cone angles, the validated construction of
a generalized polytope, its total height, the dense curvature Jacobian,
the scalar badness formula, the one-shot edge badness and pyramid
kernels that the package splits into a cached half and a per-call half,
the pyramid dihedrals by the former 3-D frame formula, one pyramid
solved at 50 digits with mpmath,
the scalar quad layout and convexity check, the flip loop that flips one
edge at a time and rechecks every edge, the two-face dihedral of an
edge, the canonical form of the
essential-edge tesselation, the face-by-face unfold, the convexity check
of an embedding, the per-face and per-hull-edge apex distance and the
apex-inside test.

This module is a test oracle: nothing in the package imports it.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy.spatial import ConvexHull

from polyforge import kernels
from polyforge.embed import EmbeddedPolytope
from polyforge.errors import InadmissibleWeightsError, PyramidError, TriangleError
from polyforge.jacobian import BandJacobian, assemble
from polyforge.kernels import _NEXT, _NEXT2
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


class UnionFind:
    """Disjoint sets over 0..n-1 whose representative is the smallest
    member: the reference for ``kernels.components``."""

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
            if rj < ri:
                ri, rj = rj, ri
            self.parent[rj] = ri

    def labels(self):
        """Label of each member, the sets numbered by their smallest
        member."""
        roots = [self.find(i) for i in range(len(self.parent))]
        label_of_root = {r: k for k, r in enumerate(sorted(set(roots)))}
        return np.array([label_of_root[r] for r in roots], dtype=np.int64)


def glued_corner_labels(dev: Development):
    """(F, 3) vertex label per corner from a per-corner union-find over
    the gluings, labels in order of each class's smallest corner 3 t + c:
    the reference that the array passes of ``surface.build_metric`` must
    match."""
    nf = dev.n_faces
    uf = UnionFind(3 * nf)
    for a, b in enumerate(dev.twin.tolist()):
        if a > b:
            continue
        (t, s), (t2, s2) = divmod(a, 3), divmod(b, 3)
        uf.union(t * 3 + (s + 1) % 3, t2 * 3 + (s2 + 2) % 3)
        uf.union(t * 3 + (s + 2) % 3, t2 * 3 + (s2 + 1) % 3)
    return uf.labels().reshape(nf, 3)


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
    slots = np.arange(3 * nf)
    twin = mesh.twin
    assert twin.shape == slots.shape, "twin table does not match the faces"
    assert np.array_equal(np.sort(twin), slots), "twin is not a permutation of the slots"
    assert np.array_equal(twin[twin], slots), "twin is not an involution"
    assert not np.any(twin == slots), "side glued to itself"
    ell = mesh.ell.ravel()
    la, lb = ell, ell[twin]
    bad = np.flatnonzero(np.abs(la - lb) > LENGTH_AGREE_REL * np.maximum(la, lb))
    assert not bad.size, f"edge length mismatch at {divmod(int(bad[0]), 3)}"
    tail, head = mesh.vert[:, [1, 2, 0]].ravel(), mesh.vert[:, [2, 0, 1]].ravel()
    assert np.array_equal(tail[twin], head), "edge direction not reversed across gluing"
    euler = mesh.n_vertices - mesh.n_edges + nf
    assert euler == 2, f"not a sphere: V-E+F = {euler}"
    assert np.isfinite(kernels.tri_angles(mesh.ell)).all(), "degenerate face"


# -- one-shot kernels -------------------------------------------------------
#
# ``kernels.face_pyramids`` and ``kernels.edge_badness`` in one piece,
# without the radius-independent halves (``kernels.pyramid_base`` and
# ``kernels.quad_frame``) that a mesh keeps in its cache.  The split
# kernels must match them bit for bit.


def _base_and_apex(ell, rad):
    """x2, y2, the apex foot (xa, ya) and alt2 of every pyramid, as
    ``kernels.face_pyramids`` solves them; raises as it does."""
    ell = np.asarray(ell, dtype=np.float64)
    rad = np.asarray(rad, dtype=np.float64)
    if not (np.isfinite(ell).all() and np.isfinite(rad).all()):
        raise PyramidError("non-finite input to the pyramid solve")

    l0, l1, l2 = ell[:, 0], ell[:, 1], ell[:, 2]
    q0, q1, q2 = rad[:, 0] ** 2, rad[:, 1] ** 2, rad[:, 2] ** 2

    # Base triangle in the plane: corners P0=(0,0), P1=(l2,0), P2=(x2,y2).
    with np.errstate(invalid="ignore", divide="ignore"):
        x2 = (l1 * l1 + l2 * l2 - l0 * l0) / (2.0 * l2)
        y2sq = l1 * l1 - x2 * x2
        if not (y2sq > 0.0).all():
            raise TriangleError("degenerate base triangle")
        y2 = np.sqrt(y2sq)

        # Apex from the three squared distances.
        xa = (q0 - q1 + l2 * l2) / (2.0 * l2)
        ya = (q0 - q2 + l1 * l1 - 2.0 * xa * x2) / (2.0 * y2)
        alt2 = q0 - xa * xa - ya * ya
    return x2, y2, xa, ya, alt2


def face_pyramids(ell, rad):
    """Solve every apex pyramid over the given faces.

    Parameters
    ----------
    ell : (F, 3) float array of base side lengths (side s opposite corner s).
    rad : (F, 3) float array of apex distances per corner.

    Returns
    -------
    dict of arrays:
      ok      (F,) bool: the squared altitude is positive (a pyramid).
      alt2    (F,) squared apex altitude over the base plane.
      alpha   (F, 3) dihedral angle along base side s.
      omega   (F, 3) dihedral angle along the apex edge to corner c.

    The dihedrals come from the outward normals (h e_y, -h e_x, D) of the
    lateral faces, where side s runs from its tail t along e and D is
    twice the signed area of the apex foot with it.  An input that is not
    finite raises PyramidError, and then a base with y2^2 <= 0 raises
    TriangleError.
    """
    x2, y2, xa, ya, alt2 = _base_and_apex(ell, rad)
    ell = np.asarray(ell, dtype=np.float64)
    rad = np.asarray(rad, dtype=np.float64)
    l2 = ell[:, 2]
    zero = np.zeros_like(l2)
    with np.errstate(all="ignore"):
        h = np.sqrt(np.maximum(alt2, 0.0))
        # side s: tail P_{s+1}, direction P_{s+2} - P_{s+1}
        tails = [(l2, zero), (x2, y2), (zero, zero)]
        dirs = [(x2 - l2, y2), (-x2, -y2), (l2, zero)]
        area = [ex * (ya - ty) - ey * (xa - tx) for (tx, ty), (ex, ey) in zip(tails, dirs)]
        sq = [ell[:, s] * ell[:, s] for s in range(3)]
        dot = [-((sq[(c + 1) % 3] + sq[(c + 2) % 3]) - sq[c]) / 2.0 for c in range(3)]
        two_area = l2 * y2
        sine = [[h] * 3, [rad[:, c] * (h * two_area) for c in range(3)]]
        cosine = [
            [area[s] / ell[:, s] for s in range(3)],
            [-(area[(c + 2) % 3] * area[(c + 1) % 3] + (h * h) * dot[c]) for c in range(3)],
        ]
        dih = np.arctan2(np.array(sine), np.array(cosine))
    return {"ok": alt2 > 0.0, "alt2": alt2, "alpha": dih[0].T.copy(), "omega": dih[1].T.copy()}


# The six frame dihedrals of a pyramid, each the angle between w1 - p and
# w2 - p after removing the component along q - p, with points numbered
# base corner 0, 1, 2 and apex 3.  Columns 0-2 are alpha along base side s
# (p, q = its tail and head, w1 = apex, w2 = corner s); columns 3-5 are
# omega along the apex edge to corner c (p = apex, q = corner c, w1, w2 =
# the next two corners).
_DIH_P = np.array([1, 2, 0, 3, 3, 3])
_DIH_Q = np.array([2, 0, 1, 0, 1, 2])
_DIH_W1 = np.array([3, 3, 3, 1, 2, 0])
_DIH_W2 = np.array([0, 1, 2, 2, 0, 1])


def _dot3(u, v):
    """Dot product over the leading axis of length 3, summed left to right
    as ``np.sum`` reduces a row of three."""
    return (u[0] * v[0] + u[1] * v[1]) + u[2] * v[2]


def frame_face_pyramids(ell, rad):
    """``face_pyramids`` with the dihedrals taken from the pyramid laid
    out in a 3-D frame, each between two wings projected off its edge:
    the package's former formula, against which the closed form's
    accuracy is compared."""
    x2, y2, xa, ya, alt2 = _base_and_apex(ell, rad)
    l2 = np.asarray(ell, dtype=np.float64)[:, 2]
    # pts[k, i, f] is coordinate k of point i (base corners 0, 1, 2 and
    # the apex 3) of face f.
    pts = np.zeros((3, 4, len(l2)))
    pts[0, 1] = l2
    pts[0, 2] = x2
    pts[1, 2] = y2
    pts[0, 3] = xa
    pts[1, 3] = ya
    pts[2, 3] = np.sqrt(np.maximum(alt2, 0.0))
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
    return {"ok": alt2 > 0.0, "alt2": alt2, "alpha": dih[0:3].T.copy(), "omega": dih[3:6].T.copy()}


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


# -- pyramids at 50 digits -------------------------------------------------
#
# The straightforward form of a pyramid solve: every quantity an ``mpf``
# under ``mp.workdps(50)``, every angle by its own half-angle formula,
# every dihedral from explicit coordinates.  The double kernel is held to
# it within stated bounds.


def _mp_angle_opp(a, b, c):
    """The half-angle formula of ``kernels._angle_opp`` at mpmath
    precision."""
    sa = (b + c - a) / 2
    sb = (c + a - b) / 2
    sc = (a + b - c) / 2
    s = (a + b + c) / 2
    if sa <= 0 or sb <= 0 or sc <= 0:
        raise TriangleError("degenerate triangle in high-precision pyramid solve")
    return 2 * mp.atan2(mp.sqrt(sb * sc), mp.sqrt(s * sa))


def _mp_dihedral(p, q, w1, w2):
    """Angle between w1 - p and w2 - p after removing the q - p component."""

    def sub(u, v):
        return [u[0] - v[0], u[1] - v[1], u[2] - v[2]]

    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]

    e = sub(q, p)
    en = mp.sqrt(dot(e, e))
    e = [x / en for x in e]
    out = []
    for w in (w1, w2):
        a = sub(w, p)
        d = dot(a, e)
        out.append([a[0] - d * e[0], a[1] - d * e[1], a[2] - d * e[2]])
    a, b = out
    cx = a[1] * b[2] - a[2] * b[1]
    cy = a[2] * b[0] - a[0] * b[2]
    cz = a[0] * b[1] - a[1] * b[0]
    return mp.atan2(mp.sqrt(cx * cx + cy * cy + cz * cz), dot(a, b))


def mp_pyramid(lengths, radii):
    """One pyramid at 50 digits, from its side lengths and apex distances
    (three floats each).  Returns a dict of float rows, or None when the
    squared altitude is non-positive (no pyramid)."""
    with mp.workdps(50):
        l0, l1, l2 = (mp.mpf(x) for x in lengths)
        r0, r1, r2 = (mp.mpf(x) for x in radii)
        q0, q1, q2 = r0 * r0, r1 * r1, r2 * r2
        # The base is decided by the exact sign of Heron's product 16
        # area^2 = 4 L1 L2 - (L1 + L2 - L0)^2 of the squared lengths: a
        # thin base whose y2^2 rounds to 0 at 169 bits is still a triangle.
        sq = [mp.fmul(x, x, exact=True) for x in (l0, l1, l2)]
        d = mp.fsub(mp.fadd(sq[1], sq[2], exact=True), sq[0], exact=True)  # 2 a.b
        x2 = d / (2 * l2)
        heron = mp.fsub(4 * mp.fmul(sq[1], sq[2], exact=True), mp.fmul(d, d, exact=True), exact=True)
        if heron <= 0:
            raise TriangleError("degenerate base triangle")
        y2 = mp.sqrt(heron) / (2 * l2)
        xa = (q0 - q1 + l2 * l2) / (2 * l2)
        ya = (q0 - q2 + l1 * l1 - 2 * xa * x2) / (2 * y2)
        alt2 = q0 - xa * xa - ya * ya
        if alt2 <= 0:
            return None
        za = mp.sqrt(alt2)

        ell = [l0, l1, l2]
        rad = [r0, r1, r2]
        pts = [
            [mp.mpf(0), mp.mpf(0), mp.mpf(0)],
            [l2, mp.mpf(0), mp.mpf(0)],
            [x2, y2, mp.mpf(0)],
            [xa, ya, za],
        ]
        rho_t, rho_h, phi, alpha, omega = [], [], [], [], []
        for s in range(3):
            t, h = (s + 1) % 3, (s + 2) % 3
            rho_t.append(_mp_angle_opp(rad[h], rad[t], ell[s]))
            rho_h.append(_mp_angle_opp(rad[t], rad[h], ell[s]))
            phi.append(_mp_angle_opp(ell[s], rad[t], rad[h]))
            alpha.append(_mp_dihedral(pts[t], pts[h], pts[s], pts[3]))
        for c in range(3):
            u, v = (c + 1) % 3, (c + 2) % 3
            omega.append(_mp_dihedral(pts[3], pts[c], pts[u], pts[v]))

        return {
            "alt2": float(alt2),
            "rho_t": [float(x) for x in rho_t],
            "rho_h": [float(x) for x in rho_h],
            "phi": [float(x) for x in phi],
            "alpha": [float(x) for x in alpha],
            "omega": [float(x) for x in omega],
        }


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


def chord_error(mesh, verts):
    """The largest | |v_i - v_j| - ell | over the mesh's side slots: how
    far the vertices miss the side lengths of the triangulation."""
    worst = 0.0
    for f in range(mesh.n_faces):
        for s in range(3):
            i, j = mesh.edge_endpoints(f, s)
            chord = float(np.linalg.norm(verts[i] - verts[j]))
            worst = max(worst, abs(chord - float(mesh.ell[f, s])))
    return worst


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
    with the half-bandwidth of its nonzeros, which are its filled cells."""
    n = len(order)
    Jp = J[np.ix_(order, order)]
    q, p = np.nonzero(Jp.T)  # column by column, so the cells ascend
    k = int(np.abs(p - q).max()) if p.size else 0
    ab = np.zeros((3 * k + 1, n), order="F")
    row = 2 * k + p - q
    ab[row, q] = Jp[p, q]
    cells = row + (3 * k + 1) * q
    return BandJacobian(ab=ab, k=k, order=np.asarray(order), cells=cells, cols=q)


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
    mask = np.zeros((mesh.n_faces, 3), dtype=bool)
    mask[f[flat], s[flat]] = True
    regions = merge_regions(mesh, mask)

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
    """``embed.apex_boundary_distance`` as it was before it was vectorized.
    A full-dimensional body: one face at a time, zero-area faces skipped.
    A degenerate one: one edge at a time of the convex hull of the
    vertices in their plane, from Qhull, whose 2-D hull vertices come
    counterclockwise."""
    verts = embedded.vertices
    a = np.asarray(apex, dtype=float)
    best = np.inf
    if not embedded.degenerate:
        for i, j, k in embedded.faces:
            nvec = np.cross(verts[j] - verts[i], verts[k] - verts[i])
            norm = float(np.linalg.norm(nvec))
            if norm == 0.0:
                continue
            best = min(best, abs(float((a - verts[i]) @ nvec)) / norm)
        return best
    centered = verts - verts.mean(axis=0)
    _, _, vt = np.linalg.svd(centered)
    plane = vt[:2]
    p2 = centered @ plane.T
    a2 = (a - verts.mean(axis=0)) @ plane.T
    hull = ConvexHull(p2).vertices
    for idx in range(len(hull)):
        p, q = p2[hull[idx]], p2[hull[(idx + 1) % len(hull)]]
        e = q - p
        t = float(np.clip((a2 - p) @ e / (e @ e), 0.0, 1.0))
        best = min(best, float(np.linalg.norm(a2 - (p + t * e))))
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
    hull = ConvexHull(p2).vertices
    for idx in range(len(hull)):
        p, q = p2[hull[idx]], p2[hull[(idx + 1) % len(hull)]]
        e = q - p
        if e[0] * (a2[1] - p[1]) - e[1] * (a2[0] - p[0]) <= tol:
            return False
    return True
