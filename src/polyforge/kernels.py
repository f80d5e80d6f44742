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

At the sizes of most solves (tens of faces) a kernel's cost is its
number of NumPy calls, not its arithmetic, so ``face_pyramids`` lays its
work out as stacked rows, one row per quantity and side over all faces,
and treats many rows in each call: each lateral triangle's
half-perimeter excesses serve all three of its angles, the six frame
dihedrals share (3, 6, F) arrays, and their dot products are
``np.add.reduce`` over the coordinate axis.  No temporary is larger
than (3, 6, F).  The operations are those of the one-shot kernel, in its
operand order, so every double is the one it gives.  The one exception
is the sign of a NaN: the one-shot kernel forms a shared sum in a
different operand order for each angle, and an x86 addition of two
NaNs returns the first.  Such rows have non-finite inputs, so
they are flagged 0 and never solved.
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


class PyramidBase(NamedTuple):
    """The radius-independent half of ``face_pyramids``: each base
    triangle laid out with corners P0 = (0, 0), P1 = (l2, 0) and
    P2 = (x2, y2), and the intermediates the apex solve reads off it."""

    y2sq: np.ndarray  # y2^2 as computed; thin bases are flagged by it
    sq21: np.ndarray  # (2, F): l2^2 and l1^2
    two_l2: np.ndarray
    two_y2: np.ndarray
    sq_max: np.ndarray  # the row max of ell^2
    pts: np.ndarray  # (3, 4, F): coordinate k of corner i; the apex, i = 3, is 0


def pyramid_base(ell):
    """``PyramidBase`` of every face with side lengths ``ell`` (F, 3)."""
    ell = np.asarray(ell, dtype=np.float64)
    l0, l1, l2 = ell[:, 0], ell[:, 1], ell[:, 2]
    with np.errstate(all="ignore"):
        sq0, sq1, sq2 = l0 * l0, l1 * l1, l2 * l2
        two_l2 = 2.0 * l2
        x2 = (sq1 + sq2 - sq0) / two_l2
        y2sq = sq1 - x2 * x2
        y2 = np.sqrt(np.maximum(y2sq, 0.0))
    sq_max = np.maximum(np.maximum(sq0, sq1), sq2)
    pts = np.zeros((3, 4, ell.shape[0]))
    pts[0, 1] = l2
    pts[0, 2] = x2
    pts[1, 2] = y2
    return PyramidBase(y2sq, np.stack([sq2, sq1]), two_l2, 2.0 * y2, sq_max, pts)


# Rows of the lateral triangles' sides, stacked (6, F) as the radii
# r0, r1, r2 and the lengths l0, l1, l2: side s has the radii r_t = rad
# of its tail corner (s+1)%3 and r_h of its head corner (s+2)%3.
_R_T = [1, 2, 0]
_R_H = [2, 0, 1]
_L = [3, 4, 5]
# The three pairwise sums of a lateral triangle, u = r_t + l, w = l + r_h
# and p = r_h + r_t, as left + right operand rows; the half-perimeter
# excesses e_t, e_h, e_l (opposite r_h, r_t and l) subtract these rows from
# u, w and p; and the half-perimeters s = p + l and s_phi = (l + r_t) + r_h
# of the slant angles and of phi add these rows to p and u.
_SUM_ROWS = np.array(_R_T + _L + _R_H + _L + _R_H + _R_T)
_EXCESS_ROWS = np.array(_R_H + _R_T + _L + _L + _R_H)
_PERIM_SUMS = np.array([6, 7, 8, 0, 1, 2])
# Each angle is 2 atan2(sqrt(num), sqrt(den)) of two products of rows of
# [e_t, e_h, e_l, s, s_phi], taken in the operand order of ``_angle_opp``:
# rho_t (opposite r_h) has num e_h e_l and den s e_t; rho_h has e_t e_l and
# s e_h; phi has e_h e_t and s_phi e_l.
_PROD_LEFT = np.array([3, 4, 5, 0, 1, 2, 3, 4, 5, 9, 10, 11, 9, 10, 11, 12, 13, 14])
_PROD_RIGHT = np.array([6, 7, 8, 6, 7, 8, 0, 1, 2, 0, 1, 2, 3, 4, 5, 6, 7, 8])


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
    refinement band are flagged 0 instead.  Inputs that are not finite
    give NaN rather than warnings.
    """
    ell = np.asarray(ell, dtype=np.float64)
    rad = np.asarray(rad, dtype=np.float64)
    nf = ell.shape[0]
    # out[b, s] holds the five angle outputs b (rho_t, rho_h, phi, alpha,
    # omega) of side or corner s, for every face.
    out = np.empty((5, 3, nf))
    with np.errstate(all="ignore"):
        if base is None:
            base = pyramid_base(ell)
        sides = np.concatenate((rad.T, ell.T))
        q = sides[:3] * sides[:3]
        # The largest of the six squared inputs.  max is exact and NaN wins
        # either way, so the order of the maxima does not matter.
        scale = np.maximum(base.sq_max, np.maximum.reduce(q))

        # Apex from the three squared distances, written into the frame.
        pts = base.pts.copy()
        xa, ya, alt = pts[:, 3]
        d = q[0] - q[1:]
        d += base.sq21
        np.divide(d[0], base.two_l2, out=xa)
        two_xa_x2 = 2.0 * xa
        two_xa_x2 *= base.pts[0, 2]
        np.subtract(d[1], two_xa_x2, out=ya)
        ya /= base.two_y2
        apex_sq = pts[:2, 3] * pts[:2, 3]
        alt2 = q[0] - apex_sq[0]
        alt2 -= apex_sq[1]

        lim = REFINE_REL * scale
        thin_base = base.y2sq <= lim
        refine = (alt2 <= lim) | thin_base
        refine |= np.isnan(alt2)
        # Clearly impossible in doubles (and the base is healthy enough
        # that the computed altitude is trustworthy): squared altitude far
        # below 0.
        dead = alt2 <= -lim
        dead &= ~thin_base
        ok = np.ones(nf, dtype=np.int8)
        ok[refine] = 0
        ok[dead] = -1

        np.maximum(alt2, 0.0, out=alt)
        np.sqrt(alt, out=alt)

        # The nine Euclidean angles: the intrinsic slant angles per side
        # from the side's flat triangle (r_t, r_h, l).  Computing them from
        # lengths keeps the two faces sharing an edge bit-for-bit
        # consistent.  Each triangle's excesses serve all three of its
        # angles; IEEE addition commutes, so they are the doubles that
        # ``_angle_opp`` computes for each angle apart (up to a NaN's sign).
        pair = sides.take(_SUM_ROWS, axis=0)
        sums = pair[:9] + pair[9:]
        del pair
        other = sides.take(_EXCESS_ROWS, axis=0)
        half = np.empty((15, nf))
        np.subtract(sums, other[:9], out=half[:9])
        np.add(sums.take(_PERIM_SUMS, axis=0), other[9:], out=half[9:])
        half *= 0.5
        prod = half.take(_PROD_LEFT, axis=0)
        prod *= half.take(_PROD_RIGHT, axis=0)
        np.maximum(prod, 0.0, out=prod)
        np.sqrt(prod, out=prod)
        ang = out[:3].reshape(9, nf)
        np.arctan2(prod[:9], prod[9:], out=ang)
        ang *= 2.0
        bad = np.logical_or.reduce(half[:9].reshape(3, 3, nf) <= 0.0)
        np.copyto(out[:3], np.nan, where=bad)
        del sums, other, half, prod

        # Dihedral angles in the frame pts[k, i, f], coordinate k of point
        # i (base corners 0, 1, 2 and the apex 3) of face f.  Dot products
        # over the coordinate axis sum left to right.
        p = pts.take(_DIH_P, axis=1)
        edge = pts.take(_DIH_Q, axis=1)
        edge -= p
        tmp = edge * edge
        dot = np.add.reduce(tmp)
        np.sqrt(dot, out=dot)
        edge /= dot
        wing1 = pts.take(_DIH_W1, axis=1)
        wing1 -= p
        wing2 = pts.take(_DIH_W2, axis=1)
        wing2 -= p
        del p
        for wing in (wing1, wing2):
            np.multiply(wing, edge, out=tmp)
            np.add.reduce(tmp, out=dot)
            np.multiply(dot, edge, out=tmp)
            wing -= tmp
        del edge
        cross = wing1.take(_NEXT, axis=0)
        cross *= wing2.take(_NEXT2, axis=0)
        other = wing1.take(_NEXT2, axis=0)
        other *= wing2.take(_NEXT, axis=0)
        cross -= other
        del other
        np.multiply(cross, cross, out=tmp)
        np.add.reduce(tmp, out=dot)
        np.sqrt(dot, out=dot)
        np.multiply(wing1, wing2, out=tmp)
        np.arctan2(dot, np.add.reduce(tmp), out=out[3:].reshape(6, nf))

    rho_t, rho_h, phi, alpha, omega = out.transpose(0, 2, 1).copy()
    return {
        "ok": ok,
        "alt2": alt2,
        "rho_t": rho_t,
        "rho_h": rho_h,
        "phi": phi,
        "alpha": alpha,
        "omega": omega,
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
