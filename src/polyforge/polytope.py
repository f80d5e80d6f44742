"""Generalized convex polytopes: pyramids with a common apex over the
faces of a geodesic triangulation.

Given radii r (apex distances per vertex), each face carries a pyramid
whose existence is governed by the sign of its squared altitude.
The fast kernels solve all pyramids in double precision and flag faces
whose altitude is too small to trust; those rows are redone at 50 digits,
which keeps the late, nearly flat stages of a deformation honest without
slowing the generic case.

The refinement calls mpmath's ``libmp`` layer on raw values.  It places
the apex and computes the face angles with the same operations, in the
same order, as the plain ``mpf`` form in ``tests/mp_refine.py``.  The
dihedrals it takes from the squared edge lengths and the volume, where the
oracle takes them from coordinates, so they do not share the order of
operations; that the doubles still agree bit for bit is a checked fact,
not a property of the construction, and the tests check it.  On a flat
limit almost every face is refined, so this path sets the pace of those
solves.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from mpmath import libmp
from mpmath.libmp import (
    from_float,
    fzero,
    mpf_add,
    mpf_atan2,
    mpf_div,
    mpf_le,
    mpf_mul,
    mpf_shift,
    mpf_sqrt,
    mpf_sub,
    to_float,
)

from . import kernels
from .errors import PyramidError, TriangleError
from .triangulation import CornerMesh

# The refinement works on mpmath's raw libmp values (sign, mantissa,
# exponent, bit count) at the precision and rounding that
# ``mp.workdps(50)`` sets, which skips the mpf objects and the context.
# Halving and doubling are exponent shifts, exact like ``/ 2`` and ``2 *``.
# ``to_float`` rounds down unless told otherwise; ``float(mpf)`` rounds to
# nearest, so every conversion passes ``rnd=_RND``.
_PREC = libmp.dps_to_prec(50)  # 169 bits
_RND = libmp.round_nearest


def _add(x, y):
    return mpf_add(x, y, _PREC, _RND)


def _sub(x, y):
    return mpf_sub(x, y, _PREC, _RND)


def _mul(x, y):
    return mpf_mul(x, y, _PREC, _RND)


def _div(x, y):
    return mpf_div(x, y, _PREC, _RND)


def _sqrt(x):
    return mpf_sqrt(x, _PREC, _RND)


def _angle_opp(a, b, c):
    """Angle opposite side ``a`` of the triangle with sides (a, b, c), three
    floats, by the half-angle formula of ``kernels._angle_opp`` at 50 digits;
    returned as the nearest float."""
    a, b, c = from_float(a), from_float(b), from_float(c)
    ab = _add(a, b)
    sa = mpf_shift(_sub(_add(b, c), a), -1)
    sb = mpf_shift(_sub(_add(c, a), b), -1)
    sc = mpf_shift(_sub(ab, c), -1)
    s = mpf_shift(_add(ab, c), -1)
    if mpf_le(sa, fzero) or mpf_le(sb, fzero) or mpf_le(sc, fzero):
        raise TriangleError("degenerate triangle in high-precision pyramid solve")
    half = mpf_atan2(_sqrt(_mul(sb, sc)), _sqrt(_mul(s, sa)), _PREC, _RND)
    return to_float(mpf_shift(half, 1), rnd=_RND)


# The base angles depend on the side lengths alone, which change only when
# an edge flips, so they are also kept across calls, in bounded memory.
# The function is pure: what the cache holds changes no result.
_base_angle = functools.lru_cache(maxsize=1024)(_angle_opp)


def _dihedral(d2, p, q, w1, w2, sine):
    """Dihedral angle of a tetrahedron along its edge p -> q, between the
    faces (p, q, w1) and (p, q, w2); returned as the nearest float.

    ``d2[a][b]`` is the squared length of edge ab as a raw value, and
    ``sine`` is |pq| * 6V, V the volume.  With e = q - p, a = w1 - p and
    b = w2 - p, twice a dot product about p is a sum of three squared
    lengths, 2 a.b = d2[p][w1] + d2[p][w2] - d2[w1][w2].  The projections
    of a and b off e have the dot product a.b - (a.e)(b.e)/|e|^2 and a
    cross product of length 6V/|e|; 4 |e|^2 times each is the atan2 pair
    below, so the angle needs no frame, division or square root."""
    dp = d2[p]
    ww = _sub(_add(dp[w1], dp[w2]), d2[w1][w2])
    qw1 = _sub(_add(dp[q], dp[w1]), d2[q][w1])
    qw2 = _sub(_add(dp[q], dp[w2]), d2[q][w2])
    x = _sub(mpf_shift(_mul(dp[q], ww), 1), _mul(qw1, qw2))
    return to_float(mpf_atan2(mpf_shift(sine, 2), x, _PREC, _RND), rnd=_RND)


def _apex_frame(lengths, radii):
    """Place one pyramid at 50 digits: base corners 0, 1, 2 in the plane
    and the apex 3 above it, from the side lengths and apex distances (three
    floats each).  Returns (alt2, points) as raw values, or None when the
    squared altitude is non-positive (no pyramid)."""
    l0, l1, l2 = (from_float(x) for x in lengths)
    q0, q1, q2 = (_mul(r, r) for r in map(from_float, radii))
    l1l1, l2l2 = _mul(l1, l1), _mul(l2, l2)
    x2 = _div(_sub(_add(l1l1, l2l2), _mul(l0, l0)), mpf_shift(l2, 1))
    y2sq = _mul(_sub(l1, x2), _add(l1, x2))
    if mpf_le(y2sq, fzero):
        raise TriangleError("degenerate base triangle")
    y2 = _sqrt(y2sq)
    xa = _div(_add(_sub(q0, q1), l2l2), mpf_shift(l2, 1))
    ya = _div(_sub(_add(_sub(q0, q2), l1l1), _mul(mpf_shift(xa, 1), x2)), mpf_shift(y2, 1))
    alt2 = _sub(_sub(q0, _mul(xa, xa)), _mul(ya, ya))
    if mpf_le(alt2, fzero):
        return None
    points = ((fzero, fzero, fzero), (l2, fzero, fzero), (x2, y2, fzero), (xa, ya, _sqrt(alt2)))
    return alt2, points


@dataclass
class PyramidBatch:
    """Per-face pyramid data; arrays indexed like the mesh faces."""

    alt2: np.ndarray
    gamma: np.ndarray
    rho_t: np.ndarray
    rho_h: np.ndarray
    phi: np.ndarray
    alpha: np.ndarray
    omega: np.ndarray
    refined: np.ndarray  # bool: rows recomputed at high precision


def _refine_row(raw, f, ell, rad, frame, angle):
    """Overwrite row f of the kernel output with the 50-digit pyramid with
    side lengths ell, apex distances rad (three floats each) and the given
    apex frame; ``angle`` evaluates ``_angle_opp``.

    The base corners are 0, 1, 2 and the apex is 3.  The dihedrals come
    from the squared edge lengths, which are exact at this precision, and
    from six times the volume, base side l2 times base height y2 times apex
    height, which all six share."""
    alt2, pts = frame
    six_v = _mul(_mul(pts[1][0], pts[2][1]), pts[3][2])
    lengths = [from_float(x) for x in ell]
    radii = [from_float(x) for x in rad]
    d2 = [[None] * 4 for _ in range(4)]
    for s in range(3):
        t, h = (s + 1) % 3, (s + 2) % 3
        d2[t][h] = d2[h][t] = _mul(lengths[s], lengths[s])
        d2[s][3] = d2[3][s] = _mul(radii[s], radii[s])
    raw["alt2"][f] = to_float(alt2, rnd=_RND)
    for c in range(3):
        raw["gamma"][f, c] = _base_angle(ell[c], ell[(c + 1) % 3], ell[(c + 2) % 3])
    for s in range(3):
        t, h = (s + 1) % 3, (s + 2) % 3
        raw["rho_t"][f, s] = angle(rad[h], rad[t], ell[s])
        raw["rho_h"][f, s] = angle(rad[t], rad[h], ell[s])
        raw["phi"][f, s] = angle(ell[s], rad[t], rad[h])
        raw["alpha"][f, s] = _dihedral(d2, t, h, s, 3, _mul(lengths[s], six_v))
    for c in range(3):
        u, v = (c + 1) % 3, (c + 2) % 3
        raw["omega"][f, c] = _dihedral(d2, 3, c, u, v, _mul(radii[c], six_v))


def solve_pyramids(ell, rad) -> PyramidBatch:
    """Solve the pyramid over every face; raises PyramidError if any face
    admits none.

    Rows the kernel flags are redone at 50 digits in two phases.  The
    first places the apex of every flagged row in face order, so a face
    without a pyramid is reported before any angle is evaluated.  The
    second evaluates the angles.  A Euclidean angle depends only on its
    three side lengths, and the twin sides of an edge (and the mirrored
    faces of a doubly covered surface) repeat the same triple, so each
    distinct triple is evaluated once per call.
    """
    ell = np.asarray(ell, dtype=float)
    rad = np.asarray(rad, dtype=float)
    raw = kernels.face_pyramids(ell, rad)
    ok = raw["ok"]
    refined = np.zeros(ell.shape[0], dtype=bool)
    frames = {}
    dead = []
    for f in np.flatnonzero(ok != 1):
        lengths, radii = ell[f].tolist(), rad[f].tolist()
        frame = None if ok[f] == -1 else _apex_frame(lengths, radii)
        if frame is None:
            dead.append(int(f))
        else:
            frames[f] = lengths, radii, frame
    if dead:
        raise PyramidError(f"no apex pyramid over faces {dead}")

    angle = functools.cache(_angle_opp)  # memo for this call only
    for f, (lengths, radii, frame) in frames.items():
        _refine_row(raw, f, lengths, radii, frame, angle)
        refined[f] = True
    return PyramidBatch(
        alt2=raw["alt2"],
        gamma=raw["gamma"],
        rho_t=raw["rho_t"],
        rho_h=raw["rho_h"],
        phi=raw["phi"],
        alpha=raw["alpha"],
        omega=raw["omega"],
        refined=refined,
    )


@dataclass
class CurvatureReport:
    """Curvatures and dihedrals of a generalized polytope."""

    kappa: np.ndarray  # 2*pi minus total apex-edge dihedral, per vertex
    edges: list  # canonical edge slots
    theta: np.ndarray  # total dihedral along each edge


class GeneralizedPolytope:
    """A triangulation plus apex radii, with all pyramids solved."""

    def __init__(self, mesh: CornerMesh, r):
        self.mesh = mesh
        self.r = np.asarray(r, dtype=float)
        if self.r.shape != (mesh.n_vertices,):
            raise ValueError("radius vector does not match the vertex count")
        if np.any(self.r <= 0.0):
            raise PyramidError("radii must be strictly positive")
        self.pyramids = solve_pyramids(mesh.ell, self.r[mesh.vert])
        self._report = None

    @property
    def n_vertices(self):
        return self.mesh.n_vertices

    def curvature_report(self) -> CurvatureReport:
        if self._report is not None:
            return self._report
        mesh, pyr = self.mesh, self.pyramids
        omega_sum = np.zeros(self.n_vertices)
        np.add.at(omega_sum, mesh.vert.ravel(), pyr.omega.ravel())
        kappa = 2.0 * math.pi - omega_sum

        edges = mesh.edges()
        f, s = np.array(edges, dtype=np.int64).reshape(-1, 2).T
        theta = pyr.alpha[f, s] + pyr.alpha[mesh.adj_face[f, s], mesh.adj_side[f, s]]
        self._report = CurvatureReport(kappa=kappa, edges=edges, theta=theta)
        return self._report

    @property
    def kappa(self):
        return self.curvature_report().kappa
