"""Generalized convex polytopes: pyramids with a common apex over the
faces of a geodesic triangulation.

Given radii r (apex distances per vertex), each face carries a pyramid
whose existence is governed by the sign of its squared altitude.
The fast kernels solve all pyramids in double precision and flag faces
whose altitude is too small to trust; those rows are redone at 50 digits,
which keeps the late, nearly flat stages of a deformation honest without
slowing the generic case.

The refinement calls mpmath's ``libmp`` layer on raw values.  It places
the apex with the same operations, in the same order, as the plain ``mpf``
form in ``tests/mp_refine.py``.  The angles and the dihedrals it computes
differently: all three angles of a triangle from one Heron root, where the
oracle takes each angle by its own half-angle formula, and the dihedrals
from the squared edge lengths and the volume, where the oracle takes them
from coordinates.  So they do not share the oracle's order of operations;
that the doubles still agree bit for bit is a checked fact, not a
property of the construction, and the tests check it.  On a flat limit
almost every face is refined, so this path sets the pace of those solves.

Congruent flagged rows are solved once per call.  Each face of a doubly
covered surface has a mirrored twin with the same side lengths and apex
distances in another corner order; the first row of each such class is
placed and refined, and every later one copies its doubles through the
corner map.  The oracle solves every row on its own, so here too the
bit-for-bit agreement of the copies is checked by test, not built in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

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
    mpf_pi,
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


_HALF_PI = mpf_shift(mpf_pi(_PREC, _RND), -1)


def _tri_angles(sides, raws):
    """The three angles of the triangle with the given sides, as nearest
    floats, the k-th opposite sides[k]; ``sides`` are three floats and
    ``raws`` the same three as raw values.

    The half-angle formula of ``kernels._angle_opp``, tan(A/2) =
    sqrt(sb sc / (s sa)), is atan2(K, s sa) with Heron's root K =
    sqrt(s sa sb sc), so one root serves all three angles.  The sums s, sa,
    sb and sc are exact at this precision unless one side is more than
    about 2^110 times another.  The angle opposite the longest side is at
    least pi/3, so it is pi minus the other two without losing digits.
    The oracle evaluates each angle by its own half-angle formula; that
    the doubles agree is checked by test."""
    a, b, c = raws
    ab = _add(a, b)
    excess = (
        mpf_shift(_sub(_add(b, c), a), -1),
        mpf_shift(_sub(_add(c, a), b), -1),
        mpf_shift(_sub(ab, c), -1),
    )
    if any(mpf_le(x, fzero) for x in excess):
        raise TriangleError("degenerate triangle in high-precision pyramid solve")
    s = mpf_shift(_add(ab, c), -1)
    area = _sqrt(_mul(_mul(s, excess[0]), _mul(excess[1], excess[2])))
    x, y, z = sides
    longest = 0 if x >= y and x >= z else 1 if y >= z else 2
    i, j = (longest + 1) % 3, (longest + 2) % 3
    half = [None] * 3
    half[i] = mpf_atan2(area, _mul(s, excess[i]), _PREC, _RND)
    half[j] = mpf_atan2(area, _mul(s, excess[j]), _PREC, _RND)
    half[longest] = _sub(_HALF_PI, _add(half[i], half[j]))
    return tuple(to_float(mpf_shift(h, 1), rnd=_RND) for h in half)


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
    and the apex 3 above it, from the side lengths and apex distances (two
    lists of three floats).  Returns (alt2, points, sides, squares) as raw
    values, where ``sides`` holds the six inputs, lengths first, and
    ``squares`` their squares; or None when the squared altitude is
    non-positive (no pyramid)."""
    sides = [from_float(x) for x in lengths + radii]
    squares = [_mul(x, x) for x in sides]
    l0, l1, l2 = sides[:3]
    l0l0, l1l1, l2l2, q0, q1, q2 = squares
    x2 = _div(_sub(_add(l1l1, l2l2), l0l0), mpf_shift(l2, 1))
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
    return alt2, points, sides, squares


@dataclass
class PyramidBatch:
    """Per-face pyramid data; arrays indexed like the mesh faces."""

    alt2: np.ndarray
    rho_t: np.ndarray
    rho_h: np.ndarray
    phi: np.ndarray
    alpha: np.ndarray
    omega: np.ndarray
    refined: np.ndarray  # bool: rows recomputed at high precision


def _refine_row(raw, f, ell, rad, frame, memo):
    """Overwrite row f of the kernel output with the 50-digit pyramid with
    side lengths ell, apex distances rad (three floats each) and the given
    apex frame.  ``memo`` holds the angles of the lateral triangles met so
    far, keyed by (shorter radius, longer radius, base side).

    The base corners are 0, 1, 2 and the apex is 3.  The dihedrals come
    from the squared edge lengths, which are exact at this precision, and
    from six times the volume, base side l2 times base height y2 times apex
    height, which all six share."""
    alt2, pts, sides, squares = frame
    lengths, radii = sides[:3], sides[3:]
    six_v = _mul(_mul(pts[1][0], pts[2][1]), pts[3][2])
    d2 = [[None] * 4 for _ in range(4)]
    for s in range(3):
        t, h = (s + 1) % 3, (s + 2) % 3
        d2[t][h] = d2[h][t] = squares[s]
        d2[s][3] = d2[3][s] = squares[3 + s]
    raw["alt2"][f] = to_float(alt2, rnd=_RND)
    for s in range(3):
        t, h = (s + 1) % 3, (s + 2) % 3
        # The twin side of an edge swaps tail and head, so the key orders
        # the radii and both sides share one entry.
        lo, hi = (h, t) if rad[h] < rad[t] else (t, h)
        key = (rad[lo], rad[hi], ell[s])
        angles = memo.get(key)
        if angles is None:
            angles = memo[key] = _tri_angles(key, (radii[lo], radii[hi], lengths[s]))
        at_lo, at_hi, phi = angles
        # rho_t lies opposite the head's radius, rho_h opposite the tail's
        raw["rho_t"][f, s], raw["rho_h"][f, s] = (at_hi, at_lo) if lo == t else (at_lo, at_hi)
        raw["phi"][f, s] = phi
        raw["alpha"][f, s] = _dihedral(d2, t, h, s, 3, _mul(lengths[s], six_v))
    for c in range(3):
        u, v = (c + 1) % 3, (c + 2) % 3
        raw["omega"][f, c] = _dihedral(d2, 3, c, u, v, _mul(radii[c], six_v))


# The six corner maps of a triangle, rotations first: read through map p,
# a row's corner k is its corner p[k], and so is its side k.  Each getter
# reads the six inputs (lengths, then apex distances) in that order.
_CORNER_MAPS = ((0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2))
_CORNER_GETTERS = tuple(itemgetter(*p, *(3 + c for c in p)) for p in _CORNER_MAPS)


def _congruence_key(inputs):
    """(key, m) for one pyramid's six inputs: the key is the least of
    their six corner orders, m the index in ``_CORNER_MAPS`` of the map
    that gives it.  Two rows with the same key are congruent pyramids."""
    return min((get(inputs), m) for m, get in enumerate(_CORNER_GETTERS))


def solve_pyramids(ell, rad) -> PyramidBatch:
    """Solve the pyramid over every face; raises PyramidError if any face
    admits none.

    Rows the kernel flags are redone at 50 digits in two phases.  The
    first places the apex of every flagged row in face order, so a face
    without a pyramid is reported before any angle is evaluated.  The
    second evaluates the angles.  A Euclidean angle depends only on its
    three side lengths, and the twin sides of an edge repeat the same
    lateral triangle, so each distinct lateral triangle is evaluated once
    per call.

    A whole pyramid depends only on its six inputs up to the order of its
    corners, and the mirrored faces of a doubly covered surface repeat
    every flagged row in another corner order.  So the flagged rows fall
    into congruence classes, keyed by ``_congruence_key``, and each class
    is solved once per call, at its first row in face order.  Every later
    row copies that row's outputs through the corner map between the two:
    alt2 as it is; alpha, phi and omega permuted; rho_t and rho_h also
    swapped when the map is a reflection, since a reflection turns each
    side's tail into its head.  When the first row has no pyramid, every
    row of its class is listed as dead.  The copies equal what solving
    each row on its own gives, and what the ``mpf`` oracle gives, bit for
    bit; that is checked by test, not built in, since the 50-digit values
    of one pyramid in two corner orders need not round alike.
    """
    ell = np.asarray(ell, dtype=float)
    rad = np.asarray(rad, dtype=float)
    raw = kernels.face_pyramids(ell, rad)
    ok = raw["ok"]
    refined = np.zeros(ell.shape[0], dtype=bool)
    classes = {}  # congruence key -> (first face, its corner map), None if dead
    frames = {}  # first face of each live class -> lengths, radii, frame
    twins = []  # (face, first face of its class, their two corner maps)
    dead = []
    for f in np.flatnonzero(ok != 1):
        if ok[f] == -1:
            dead.append(int(f))
            continue
        lengths, radii = ell[f].tolist(), rad[f].tolist()
        key, m = _congruence_key(lengths + radii)
        if key not in classes:
            frame = _apex_frame(lengths, radii)
            if frame is not None:
                frames[f] = lengths, radii, frame
            classes[key] = None if frame is None else (f, m)
        first = classes[key]
        if first is None:
            dead.append(int(f))
        elif first[0] != f:
            twins.append((f, *first, m))
    if dead:
        raise PyramidError(f"no apex pyramid over faces {dead}")

    memo = {}  # lateral triangles, for this call only
    for f, (lengths, radii, frame) in frames.items():
        _refine_row(raw, f, lengths, radii, frame, memo)
        refined[f] = True
    if twins:
        face, first, first_map, face_map = (np.array(x) for x in zip(*twins))
        maps = np.array(_CORNER_MAPS)
        # corner k of the twin is corner corner[k] of its first row
        corner = np.take_along_axis(maps[first_map], np.argsort(maps[face_map], axis=1), axis=1)
        reflect = ((first_map >= 3) != (face_map >= 3))[:, None]
        src = first[:, None], corner
        raw["alt2"][face] = raw["alt2"][first]
        for name in ("alpha", "phi", "omega"):
            raw[name][face] = raw[name][src]
        rho_t, rho_h = raw["rho_t"][src], raw["rho_h"][src]
        raw["rho_t"][face] = np.where(reflect, rho_h, rho_t)
        raw["rho_h"][face] = np.where(reflect, rho_t, rho_h)
        refined[face] = True
    return PyramidBatch(
        alt2=raw["alt2"],
        rho_t=raw["rho_t"],
        rho_h=raw["rho_h"],
        phi=raw["phi"],
        alpha=raw["alpha"],
        omega=raw["omega"],
        refined=refined,
    )


@dataclass
class CurvatureReport:
    """Curvatures and dihedrals of a generalized polytope.

    ``theta`` is indexed like the mesh's side slots: ``theta[f, s]`` is the
    total dihedral along the edge of side (f, s), the sum of the two
    pyramids' base dihedrals there.  IEEE addition commutes, so both slots
    of an edge hold the same double."""

    kappa: np.ndarray  # 2*pi minus total apex-edge dihedral, per vertex
    theta: np.ndarray  # (F, 3) total dihedral along the edge of each side


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

        theta = pyr.alpha + pyr.alpha[mesh.adj_face, mesh.adj_side]
        self._report = CurvatureReport(kappa=kappa, theta=theta)
        return self._report

    @property
    def kappa(self):
        return self.curvature_report().kappa
