"""Vectorized NumPy kernels for the numeric hot loops.

All functions are pure and operate on plain ndarrays.

Conventions (shared with the rest of the package):

* ``ell[f, s]`` is the length of the side of face ``f`` opposite corner
  ``s``; side ``s`` joins corners ``(s+1)%3`` (tail) and ``(s+2)%3``
  (head).
* ``rad[f, c]`` is the distance from the apex to corner ``c``.

The two kernels that run on every Newton iterate are split in two.
``pyramid_base`` and ``quad_frame`` read the side lengths alone;
``face_pyramids`` and ``edge_badness`` add the radii or weights.  A mesh
keeps the length halves in its cache (``triangulation.CornerMesh.
cached``) until a flip changes its lengths.  The split only keeps
intermediates: each double comes from the same operations in the same
order as in the one-shot kernels, which the tests keep as the reference.

A pyramid's dihedrals come in closed form from its apex foot.  In the
base frame P0 = (0, 0), P1 = (l2, 0), P2 = (x2, y2), side s runs from
its tail t = P_{s+1} along e = P_{s+2} - P_{s+1}.  With the foot
F = (xa, ya) and the height h = sqrt(alt2), let D_s = e_x (ya - t_y) -
e_y (xa - t_x), twice the signed area of the foot with side s.  The
lateral face over side s spans e and A - t, A = (xa, ya, h), so its
outward normal is their cross product n_s = (h e_y, -h e_x, D_s), and
the base's is (0, 0, -1).  A dihedral is pi minus the angle between the
outward normals of its faces; each ``arctan2`` below takes its sine and
cosine up to a common positive factor.  Hence

* alpha_s = atan2(h, D_s / l_s), from n_s and the base's normal;
* omega_c = atan2(r_c h 2A, -(D_{c+2} D_{c+1} + h^2 E_c)), between the
  normals of the two sides at corner c.  The cosine's numerator is
  minus their dot product, since E_c = (P_{c+1} - P_c).(P_c - P_{c+2})
  = e_{c+2}.e_{c+1} = -((l_{c+1}^2 + l_{c+2}^2) - l_c^2) / 2.  The
  sine's numerator is the length of their cross product: with
  a = P_c - P_{c+2}, b = P_{c+1} - P_c and u = A - P_c, the normals are
  a x u and b x u, whose cross product is det(a, b, u) u, and
  |det(a, b, u)| = h 2A for the base's doubled area 2A = l2 y2.

Every term but D and h depends on the lengths alone (``PyramidBase``).
At the sizes of most solves (tens of faces) a kernel's cost is its
number of NumPy calls, not its arithmetic, so ``face_pyramids`` works
on (3, F) rows, one per side or corner over all faces, and takes all
six dihedrals in one ``arctan2`` over (2, 3, F).  The operations are
those of the one-shot kernel, in its operand order, so every double is
the one it gives.  No angle of the lateral triangles
(apex, tail, head) is solved: the Jacobian, their only reader, takes
its factors in closed form from the triangles' sides
(``jacobian.assemble``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import PyramidError, TriangleError

BACKEND = "numpy"

# Cyclic successors (k+1)%3 and (k+2)%3: the tail and head corner of side
# k, and the sides k+1 and k+2 that meet at corner k.
_NEXT = np.array([1, 2, 0])
_NEXT2 = np.array([2, 0, 1])


def _angle_opp(a, b, c):
    """Euclidean angle opposite side ``a`` in triangles (a, b, c), batched.

    Half-angle atan2 form; inputs may be any broadcastable arrays.
    Degenerate inputs produce NaN rather than raising.
    """
    with np.errstate(invalid="ignore"):
        sa = 0.5 * (b + c - a)
        sb = 0.5 * (c + a - b)
        sc = 0.5 * (a + b - c)
        s = 0.5 * (a + b + c)
        num = np.sqrt(np.maximum(sb * sc, 0.0))
        den = np.sqrt(np.maximum(s * sa, 0.0))
        bad = (sa <= 0.0) | (sb <= 0.0) | (sc <= 0.0)
        ang = 2.0 * np.arctan2(num, den)
    return np.where(bad, np.nan, ang)


def tri_angles(ell):
    """Corner angles of each face: out[f, c] is the angle at corner c."""
    ell = np.asarray(ell, dtype=np.float64)
    return _angle_opp(ell, ell[:, _NEXT], ell[:, _NEXT2])


def corner_layout(edge, near, far):
    """The corner at distance ``near`` from the tail (0, 0) and ``far``
    from the head (edge, 0) of an edge laid on the x axis: its x =
    (near^2 + edge^2 - far^2) / (2 edge) and y^2 = near^2 - x^2, batched.
    It warns as its arithmetic does, so callers run it inside their own
    ``np.errstate``."""
    x = (near * near + edge * edge - far * far) / (2.0 * edge)
    return x, near * near - x * x


class PyramidBase(NamedTuple):
    """The radius-independent half of ``face_pyramids``: each base
    triangle laid out with corners P0 = (0, 0), P1 = (l2, 0) and
    P2 = (x2, y2), and the intermediates that the apex solve and the
    dihedrals read off it.  Side s runs from its tail P_{s+1} along
    P_{s+2} - P_{s+1}."""

    y2sq: np.ndarray  # y2^2 as computed; a base with y2^2 <= 0 raises
    sq21: np.ndarray  # (2, F): l2^2 and l1^2
    two_l2: np.ndarray
    two_y2: np.ndarray
    tail: np.ndarray  # (2, 3, F): x and y of the tail of side s; tail[0, 1] is x2
    edge: np.ndarray  # (2, 3, F): x and y of the direction of side s
    ell_t: np.ndarray  # (3, F): ell transposed
    dot: np.ndarray  # (3, F): E_c = -((l_{c+1}^2 + l_{c+2}^2) - l_c^2) / 2
    two_area: np.ndarray  # l2 y2


def pyramid_base(ell):
    """``PyramidBase`` of every face with side lengths ``ell`` (F, 3)."""
    ell = np.asarray(ell, dtype=np.float64)
    ell_t = ell.T.copy()
    l0, l1, l2 = ell_t
    with np.errstate(all="ignore"):
        x2, y2sq = corner_layout(l2, l1, l0)
        y2 = np.sqrt(np.maximum(y2sq, 0.0))
        sq = ell_t * ell_t
        dot = sq.take(_NEXT, axis=0)
        dot += sq.take(_NEXT2, axis=0)
        dot -= sq
        dot *= -0.5
        tail = np.zeros((2, 3, ell.shape[0]))
        tail[0, 0] = l2
        tail[0, 1] = x2
        tail[1, 1] = y2
        edge = np.stack([[x2 - l2, -x2, l2], [y2, -y2, np.zeros_like(y2)]])
        two_area = l2 * y2
        two_l2 = 2.0 * l2
    return PyramidBase(y2sq, sq[[2, 1]], two_l2, 2.0 * y2, tail, edge, ell_t, dot, two_area)


def face_pyramids(ell, rad, base=None):
    """Solve every apex pyramid over the given faces.

    Parameters
    ----------
    ell : (F, 3) float array of base side lengths (side s opposite corner s).
    rad : (F, 3) float array of apex distances per corner.
    base : ``pyramid_base(ell)``, which a caller may keep for as long as
        ``ell`` does not change; computed here when not given.

    Returns
    -------
    dict of arrays:
      ok      (F,) bool: the squared altitude is positive, so the pyramid
              exists; False means it has none.
      alt2    (F,) squared apex altitude over the base plane.
      alpha   (F, 3) dihedral angle along base side s.
      omega   (F, 3) dihedral angle along the apex edge to corner c.

    Every row is decided by the sign of its alt2 in doubles.  The
    construction needs no more: a pyramid's existence is that sign, and
    near a flat body the dihedrals stay far enough inside
    ``polytope.FOLD_TOL`` to classify its folds.  The dihedrals of a row
    without a pyramid are meaningless.  An input that is not finite
    raises PyramidError, and then a base with y2^2 <= 0 (collinear, or
    with a zero side) raises TriangleError, before any row is solved;
    neither warns.  An input above about 1e154, whose square overflows,
    makes its row dead or its base degenerate.
    """
    ell = np.asarray(ell, dtype=np.float64)
    rad = np.asarray(rad, dtype=np.float64)
    nf = ell.shape[0]
    if not (np.isfinite(ell).all() and np.isfinite(rad).all()):
        raise PyramidError("non-finite input to the pyramid solve")
    # sine[b, s] and cosine[b, s] are multiples of the sine and cosine of
    # the dihedrals b (alpha, omega) of side or corner s, for every face.
    sine = np.empty((2, 3, nf))
    cosine = np.empty((2, 3, nf))
    with np.errstate(all="ignore"):
        if base is None:
            base = pyramid_base(ell)
        if not (base.y2sq > 0.0).all():
            raise TriangleError("degenerate base triangle")
        rad_t = rad.T
        q = np.multiply(rad_t, rad_t, order="C")

        # Foot (xa, ya) of the apex from the three squared distances.
        d = q[0] - q[1:]
        d += base.sq21
        xa = d[0] / base.two_l2
        two_xa_x2 = 2.0 * xa
        two_xa_x2 *= base.tail[0, 1]
        ya = d[1] - two_xa_x2
        ya /= base.two_y2
        alt2 = q[0] - xa * xa
        alt2 -= ya * ya
        ok = alt2 > 0.0
        alt = np.sqrt(np.maximum(alt2, 0.0))

        # Twice the signed area of the foot with each side, from its tail.
        area = ya - base.tail[1]
        area *= base.edge[0]
        across = xa - base.tail[0]
        across *= base.edge[1]
        area -= across

        sine[0] = alt
        np.divide(area, base.ell_t, out=cosine[0])
        np.multiply(rad_t, alt * base.two_area, out=sine[1])
        np.multiply(area.take(_NEXT2, axis=0), area.take(_NEXT, axis=0), out=cosine[1])
        cosine[1] += (alt * alt) * base.dot
        np.negative(cosine[1], out=cosine[1])
        dih = np.arctan2(sine, cosine, out=sine)

    alpha, omega = dih.transpose(0, 2, 1).copy()
    return {"ok": ok, "alt2": alt2, "alpha": alpha, "omega": omega}


class QuadFrame(NamedTuple):
    """The length-only half of ``edge_badness``: the quadrilateral around
    each edge laid out with the shared diagonal i -> j on the x axis, k
    at (xk, yk) above it and l at (xl, yl) below, and the intermediates
    the badness reads off it."""

    sq_ij: np.ndarray  # l_ij^2
    two_ij: np.ndarray  # 2 l_ij
    sq_ik: np.ndarray  # l_ik^2
    two_xk: np.ndarray
    two_yk: np.ndarray
    sq_il: np.ndarray  # l_il^2
    xl: np.ndarray
    yl: np.ndarray
    flat: np.ndarray  # k or l on the line of i -> j: no badness


def quad_frame(l_ij, l_ik, l_jk, l_il, l_jl):
    """``QuadFrame`` of the edges with the given side lengths, batched."""
    l_ij, l_ik, l_jk, l_il, l_jl = [
        np.asarray(x, dtype=np.float64) for x in (l_ij, l_ik, l_jk, l_il, l_jl)
    ]
    with np.errstate(invalid="ignore", divide="ignore"):
        sq_ij, sq_ik, sq_il = l_ij * l_ij, l_ik * l_ik, l_il * l_il
        two_ij = 2.0 * l_ij
        xk, yk2 = corner_layout(l_ij, l_ik, l_jk)
        xl, yl2 = corner_layout(l_ij, l_il, l_jl)
        two_yk = 2.0 * np.sqrt(np.maximum(yk2, 0.0))
        yl = -np.sqrt(np.maximum(yl2, 0.0))
    flat = (yk2 <= 0.0) | (yl2 <= 0.0)
    return QuadFrame(sq_ij, two_ij, sq_ik, 2.0 * xk, two_yk, sq_il, xl, yl, flat)


def edge_badness(frame, q_i, q_j, q_k, q_l):
    """Weighted-Delaunay margin per edge of a ``quad_frame``, batched.

    The returned value is ``q_l - ext(l)`` where ext is the quadratic
    that takes the values q at i, j, k; positive means the edge is bad.
    NaN marks edges whose quad has a flat triangle (k or l on the line
    of i->j) or whose value is not finite.
    """
    q_i, q_j, q_k, q_l = [np.asarray(x, dtype=np.float64) for x in (q_i, q_j, q_k, q_l)]
    with np.errstate(invalid="ignore", divide="ignore"):
        ax = (frame.sq_ij - q_j + q_i) / frame.two_ij
        ay = (frame.sq_ik - q_k + q_i - frame.two_xk * ax) / frame.two_yk
        ext = q_i + frame.sq_il - 2.0 * (frame.xl * ax + frame.yl * ay)
        out = q_l - ext
    return np.where(frame.flat | ~np.isfinite(out), np.nan, out)


def scatter_add(size, index, vals):
    """Flat buffer of ``size`` zeros with each ``vals[m]`` added at
    ``index[m]``; duplicates are summed in input order, as ``np.add.at``
    sums them."""
    return np.bincount(index, weights=vals, minlength=size)


def components(n, a, b):
    """Connected-component label of each node 0..n-1 of the graph with
    the edges a[m] -- b[m], components numbered in order of their
    smallest node.

    Hooking and pointer jumping (Shiloach & Vishkin, An O(log n)
    parallel connectivity algorithm, 1982).  Every node points at a
    smaller or equal node of its component, at first itself.  A round
    hooks the larger root of every edge whose roots differ onto the
    smaller one, then points every node straight at its root.  A
    component's smallest node points at itself throughout, so it is the
    root of its component once no edge is split.  Each round hooks at
    least one root away; the corner gluings of the random hulls n = 160
    to 640 take 2 rounds."""
    root = np.arange(n)
    while True:
        ra, rb = root[a], root[b]
        split = ra != rb
        if not split.any():
            break
        ra, rb = ra[split], rb[split]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
    return np.unique(root, return_inverse=True)[1]
