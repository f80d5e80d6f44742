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
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

BACKEND = "numpy"

# Faces whose squared altitude (or base height) falls below this fraction
# of the squared data scale are flagged for high-precision recomputation.
REFINE_REL = 1e-8

# Cyclic successors (k+1)%3 and (k+2)%3: the tail and head corner of side
# k, and the factor rows of cross-product component k,
# (a x b)[k] = a[k+1] b[k+2] - a[k+2] b[k+1].
_NEXT = np.array([1, 2, 0])
_NEXT2 = np.array([2, 0, 1])

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


def _angle_opp(a, b, c):
    """Euclidean angle opposite side ``a`` in triangles (a, b, c), batched.

    Half-angle atan2 form; inputs may be any broadcastable arrays.
    Degenerate inputs produce NaN rather than raising.
    """
    sa = 0.5 * (b + c - a)
    sb = 0.5 * (c + a - b)
    sc = 0.5 * (a + b - c)
    s = 0.5 * (a + b + c)
    with np.errstate(invalid="ignore"):
        num = np.sqrt(np.maximum(sb * sc, 0.0))
        den = np.sqrt(np.maximum(s * sa, 0.0))
        bad = (sa <= 0.0) | (sb <= 0.0) | (sc <= 0.0)
        ang = 2.0 * np.arctan2(num, den)
    return np.where(bad, np.nan, ang)


def _dot3(u, v):
    """Dot product over the leading axis of length 3, summed left to right
    as ``np.sum`` reduces a row of three."""
    return (u[0] * v[0] + u[1] * v[1]) + u[2] * v[2]


def tri_angles(ell):
    """Corner angles of each face: out[f, c] is the angle at corner c."""
    ell = np.asarray(ell, dtype=np.float64)
    return _angle_opp(ell, ell[:, _NEXT], ell[:, _NEXT2])


class PyramidBase(NamedTuple):
    """The radius-independent half of ``face_pyramids``: each base
    triangle laid out with corners P0 = (0, 0), P1 = (l2, 0) and
    P2 = (x2, y2), and the intermediates the apex solve reads off it."""

    x2: np.ndarray
    y2sq: np.ndarray  # y2^2 as computed; thin bases are flagged by it
    y2: np.ndarray
    sq1: np.ndarray  # l1^2
    sq2: np.ndarray  # l2^2
    two_l2: np.ndarray
    two_y2: np.ndarray
    sq_max: np.ndarray  # the row max of ell^2


def pyramid_base(ell):
    """``PyramidBase`` of every face with side lengths ``ell`` (F, 3)."""
    ell = np.asarray(ell, dtype=np.float64)
    l0, l1, l2 = ell[:, 0], ell[:, 1], ell[:, 2]
    with np.errstate(invalid="ignore", divide="ignore"):
        sq0, sq1, sq2 = l0 * l0, l1 * l1, l2 * l2
        two_l2 = 2.0 * l2
        x2 = (sq1 + sq2 - sq0) / two_l2
        y2sq = sq1 - x2 * x2
        y2 = np.sqrt(np.maximum(y2sq, 0.0))
    sq_max = np.maximum(np.maximum(sq0, sq1), sq2)
    return PyramidBase(x2, y2sq, y2, sq1, sq2, two_l2, 2.0 * y2, sq_max)


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
    if base is None:
        base = pyramid_base(ell)
    nf = ell.shape[0]

    q0, q1, q2 = rad[:, 0] ** 2, rad[:, 1] ** 2, rad[:, 2] ** 2
    # The largest of the six squared inputs.  max is exact and NaN wins
    # either way, so the order of the maxima does not matter.
    scale = np.maximum(np.maximum(np.maximum(base.sq_max, q0), q1), q2)

    # Apex from the three squared distances.
    with np.errstate(invalid="ignore", divide="ignore"):
        xa = (q0 - q1 + base.sq2) / base.two_l2
        ya = (q0 - q2 + base.sq1 - 2.0 * xa * base.x2) / base.two_y2
        alt2 = q0 - xa * xa - ya * ya

    ok = np.ones(nf, dtype=np.int8)
    thin_base = base.y2sq <= REFINE_REL * scale
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
    pts[0, 1] = ell[:, 2]
    pts[0, 2] = base.x2
    pts[1, 2] = base.y2
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
        xk = (sq_ik + sq_ij - l_jk * l_jk) / two_ij
        yk2 = sq_ik - xk * xk
        xl = (sq_il + sq_ij - l_jl * l_jl) / two_ij
        yl2 = sq_il - xl * xl
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
