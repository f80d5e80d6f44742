"""Generalized convex polytopes: pyramids with a common apex over the
faces of a geodesic triangulation.

Given radii r (apex distances per vertex), each face carries a pyramid
whose existence is governed by the sign of its squared altitude.
The fast kernels solve all pyramids in double precision and flag faces
whose altitude is too small to trust; those rows are redone exactly,
which keeps the late, nearly flat stages of a deformation honest without
slowing the generic case.

The refinement works in Python integers.  A flagged row's six inputs are
integers on one common power-of-two scale (an input that is not finite
raises PyramidError), and every quantity the
pyramid needs is an integer polynomial in their squares: Heron's product
of the base, the Gram determinant of the three edges at corner 0, and
both operands of every angle's atan2 up to a square root.  Each angle
comes from a fixed-point atan2 and is rounded to the nearest double only
when its error bound cannot straddle a rounding boundary; otherwise it
is recomputed at twice the precision (Ziv, "Fast evaluation of
elementary mathematical functions with correctly rounded last bit", ACM
TOMS 17, 1991).  So each double is the correctly rounded value of the
exact pyramid, except where the oracle, ``tests/mp_refine.py``, decides
otherwise: it works at 50 digits (169 bits), and the sums in a lateral
triangle's half-perimeter excesses are rounded to 169 bits here as
there.  The oracle rounds every operation, so that the doubles agree
with it bit for bit is a checked fact, not a property of the
construction, and the tests check it.  On a flat limit almost every face
is refined, so this path sets the pace of those solves.

Congruent flagged rows are solved once per call.  Each face of a doubly
covered surface has a mirrored twin with the same side lengths and apex
distances in another corner order; the first row of each such class is
placed and refined, and every later one copies its doubles through the
corner map.  The oracle solves every row on its own, so here too the
bit-for-bit agreement of the copies is checked by test, not built in.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from . import kernels
from .errors import PyramidError, TriangleError
from .triangulation import CornerMesh, twin_slots

# The oracle's sums carry 169 bits, the precision of 50 digits.
_SUM_BITS = 169
# Fraction bits of the fixed-point atan2: the first attempt, and the most
# that the doubling may reach.  The table holds a few more.
_ATAN_BITS = 96
_MAX_BITS = 4 * _ATAN_BITS
_TABLE_BITS = _MAX_BITS + 16
_UNDECIDED = f"atan2 rounding undecided at {_MAX_BITS} bits"

# A flat body's dihedrals classify once each lies within FOLD_TOL of 0 or
# pi (CurvatureReport.folds): solver.solve_path stops there, and
# embed.place_faces lays the body out with them snapped.  Along the paths
# of the doubly covered 3-4-5 triangle and 3- to 64-gons, the dihedrals
# lie within 0.8 t to 2.9 t of the two classes at every accepted
# t <= 1e-3 (4.6 t once, on the 16-gon), so at 3e-5 they classify at
# t = 7.5e-6 to 1.6e-5.  |kappa|_inf is then at most 4.8e-5 (the
# triangle), and 2.2e-5 on the square, a factor 4.6 under a03's bound of
# 1e-4; at 1e-4 the two stopped at 9.6e-5 and 8.6e-5.  Genuinely
# 3-dimensional bodies keep their dihedrals far from 0: the rim
# dihedrals of thin discs measure 1.6e-2 and more (the 300:1 disc at
# n = 40), over 500 times FOLD_TOL, and catalog solids and hulls 1.2 and
# more.
FOLD_TOL = 3e-5


def _round_sum(n):
    """The integer n rounded to 169 significant bits, to nearest with ties
    to even, as the oracle's 50-digit sums are rounded."""
    m = abs(n)
    drop = m.bit_length() - _SUM_BITS
    if drop <= 0:
        return n
    q, r = m >> drop, m & ((1 << drop) - 1)
    half = 1 << (drop - 1)
    q += r > half or (r == half and q & 1)
    return q << drop if n > 0 else -(q << drop)


def _integers(values):
    """(ints, den) with values[k] == ints[k] / den exactly, den a power of
    two; raises PyramidError unless the floats are all finite."""
    if not all(map(math.isfinite, values)):
        raise PyramidError("non-finite input to the exact pyramid solve")
    ratios = [v.as_integer_ratio() for v in values]
    den = max(d for _, d in ratios)
    return [n * (den // d) for n, d in ratios], den


def _atan_series(u, bits):
    """atan(u / 2**bits) in units of 2**-bits by its Taylor series, for an
    integer 0 <= u <= 2**bits / 256, each operation rounded down.  Returns
    (value, err), the exact arctangent lying within err units of value:
    each term is off by less than 2.02 units and the tail by less than 1."""
    u2 = u * u >> bits
    total, n = 0, 1
    while u:
        total += u // n
        u = u * u2 >> bits
        total -= u // (n + 2)
        u = u * u2 >> bits
        n += 4
    return total, 2 * n


# atan(k / 256) for k = 0..256 in units of 2**-_TABLE_BITS, entry 256 being
# pi / 4.  Each entry adds atan(256 / (65536 + k (k - 1))), which is
# atan(k / 256) - atan((k - 1) / 256), to the one before; 24 guard bits
# absorb the 256 rounding errors, so each entry is off by at most 0.51.
_TABLE = tuple(
    (a + (1 << 23)) >> 24
    for a in itertools.accumulate(
        (
            _atan_series((256 << (_TABLE_BITS + 24)) // (65536 + k * (k - 1)), _TABLE_BITS + 24)[0]
            for k in range(1, 257)
        ),
        initial=0,
    )
)


def _nearest(value, scale, err):
    """The double nearest value / 2**scale, if every number within err of
    value rounds to the same double; else None."""
    unit = 1 << scale
    lo = (value - err) / unit
    return lo if lo == (value + err) / unit else None


def _atan2_fixed(p, x, bits):
    """atan2(sqrt(p), x) for integers p > 0 and x != 0 in fixed point, as
    (value, scale, err): the angle lies within err of value / 2**scale.
    The scale is ``bits``, or more where the angle is small, so that the
    value keeps about ``bits`` significant bits.

    With y = sqrt(p) and t = min(y, |x|) / max(y, |x|), the angle is
    atan(t), pi - atan(t) or pi/2 -+ atan(t).  t is rounded to the nearest
    c = k/256, and atan(t) = atan(c) + atan(u) with u = (t - c) / (1 + t c),
    |u| <= 1/512, from the table and a short series."""
    xx = x * x
    small = p <= xx
    num, den = (p, xx) if small else (xx, p)
    scale = bits
    if small and x > 0:  # the angle is atan(t) itself
        scale += max(0, (den.bit_length() - num.bit_length()) >> 1)
    t = math.isqrt((num << 2 * scale) // den)  # t 2**scale, low by under 2
    k = (t + (1 << (scale - 9))) >> (scale - 8)
    if k:
        u = ((t - (k << (scale - 8))) << scale) // ((1 << scale) + (t * k >> 8))
        angle, err = _atan_series(abs(u), scale)
        angle = (_TABLE[k] >> (_TABLE_BITS - scale)) + (angle if u >= 0 else -angle)
    else:
        angle, err = _atan_series(t, scale)
    # t and u are off by less than 6 units, the table and pi by less than 2
    err += 10
    if not small:
        half_pi = _TABLE[256] >> (_TABLE_BITS - scale - 1)
        angle = half_pi - angle if x > 0 else half_pi + angle
    elif x < 0:
        angle = (_TABLE[256] >> (_TABLE_BITS - scale - 2)) - angle
    return angle, scale, err


def _atan2(p, x, bits=_ATAN_BITS):
    """atan2(sqrt(p), x) for integers p >= 0 and x, as the nearest double,
    found by doubling ``bits`` until the rounding is decided."""
    if not p:
        return 0.0 if x >= 0 else math.pi
    if not x:
        return math.pi / 2
    while bits <= _MAX_BITS:
        angle = _nearest(*_atan2_fixed(p, x, bits))
        if angle is not None:
            return angle
        bits *= 2
    raise ArithmeticError(_UNDECIDED)


def _tri_angles(sides):
    """The three angles of the triangle with the given sides, three
    integers on one scale, as nearest floats, the k-th opposite sides[k].

    The half-angle formula of ``kernels._angle_opp``, tan(A/2) =
    sqrt(sb sc / (s sa)), is atan2(K, s sa) with Heron's root K =
    sqrt(s sa sb sc), so one product serves all three angles.  The
    excesses sa, sb and sc round their sums to 169 bits, as the oracle's
    do, which decides whether a triangle whose sides differ by more than
    about 2^116 is degenerate.  s is their sum, so the half-angles add up
    to pi/2 exactly, and the angle opposite the longest side, which is at
    least pi/3, is pi minus the other two."""
    a, b, c = sides
    excess = (
        _round_sum(_round_sum(b + c) - a),
        _round_sum(_round_sum(c + a) - b),
        _round_sum(_round_sum(a + b) - c),
    )
    if min(excess) <= 0:
        raise TriangleError("degenerate triangle in high-precision pyramid solve")
    s = sum(excess)
    heron = s * excess[0] * excess[1] * excess[2]
    longest = 0 if a >= b and a >= c else 1 if b >= c else 2
    i, j = (longest + 1) % 3, (longest + 2) % 3
    bits = _ATAN_BITS
    while bits <= _MAX_BITS:
        hi, wi, ei = _atan2_fixed(heron, s * excess[i], bits)
        hj, wj, ej = _atan2_fixed(heron, s * excess[j], bits)
        # pi minus twice both half-angles, at the scale ``bits``
        rest = (_TABLE[256] >> (_TABLE_BITS - bits - 2)) - 2 * (
            (hi >> (wi - bits)) + (hj >> (wj - bits))
        )
        rest_err = 2 + 2 * ((ei >> (wi - bits)) + (ej >> (wj - bits)) + 4)
        angles = [None] * 3
        angles[i] = _nearest(2 * hi, wi, 2 * ei)
        angles[j] = _nearest(2 * hj, wj, 2 * ej)
        angles[longest] = _nearest(rest, bits, rest_err)
        if None not in angles:
            return tuple(angles)
        bits *= 2
    raise ArithmeticError(_UNDECIDED)


def _dihedral(d2, p, q, w1, w2, vol):
    """Dihedral angle of a tetrahedron along its edge p -> q, between the
    faces (p, q, w1) and (p, q, w2); returned as the nearest float.

    ``d2[a][b]`` is the squared length of edge ab and ``vol`` is (24 V)^2,
    V the volume, all integers on one scale.  With e = q - p, a = w1 - p
    and b = w2 - p, twice a dot product about p is a sum of three squared
    lengths, 2 a.b = d2[p][w1] + d2[p][w2] - d2[w1][w2].  The projections
    of a and b off e have the dot product a.b - (a.e)(b.e)/|e|^2 and a
    cross product of length 6V/|e|; 4 |e|^2 times each is the atan2 pair
    below, the cross term 24 |e| V being the root of d2[p][q] vol."""
    dp = d2[p]
    ww = dp[w1] + dp[w2] - d2[w1][w2]
    qw1 = dp[q] + dp[w1] - d2[q][w1]
    qw2 = dp[q] + dp[w2] - d2[q][w2]
    return _atan2(dp[q] * vol, 2 * dp[q] * ww - qw1 * qw2)


def _apex_frame(lengths, radii):
    """Decide one pyramid from its side lengths and apex distances (two
    lists of three floats), with base corners 0, 1, 2 and the apex 3.
    Returns (alt2, ints, d2, vol): the squared altitude as the nearest
    double, the six inputs as integers on one scale (lengths first), the
    table d2[a][b] of squared edge lengths and vol = (24 V)^2, V the
    volume, both on that scale; or None when the squared altitude is not
    positive (no pyramid).

    With L the squared lengths, Heron's 16 area^2 = 4 L1 L2 - (L1 + L2 -
    L0)^2 decides whether the base is a triangle, and the Gram determinant
    of the three edges at corner 0, which gives 144 V^2, whether there is a
    pyramid.  alt2 = 144 V^2 / (16 area^2) is rounded once, to inf when no
    double can hold it.  The oracle places the apex by coordinates at 169
    bits; its signs and doubles agree with these by test."""
    if not lengths[2]:
        raise ZeroDivisionError  # the oracle's first division, by 2 l2
    ints, den = _integers(lengths + radii)
    L0, L1, L2, Q0, Q1, Q2 = (v * v for v in ints)
    d = L1 + L2 - L0  # 2 a.b, a and b the base edges at corner 0
    heron = 4 * L1 * L2 - d * d
    if heron <= 0:
        raise TriangleError("degenerate base triangle")
    e = L2 + Q0 - Q1  # 2 a.w, w the edge from corner 0 to the apex
    f = L1 + Q0 - Q2  # 2 b.w
    gram = Q0 * heron + d * e * f - L2 * f * f - L1 * e * e  # 144 V^2
    if gram <= 0:
        return None
    try:
        alt2 = gram / (heron * den * den)
    except OverflowError:
        alt2 = math.inf
    d2 = ((0, L2, L1, Q0), (L2, 0, L0, Q1), (L1, L0, 0, Q2), (Q0, Q1, Q2, 0))
    return alt2, ints, d2, 4 * gram


@dataclass
class PyramidBatch:
    """Per-face pyramid data; arrays indexed like the mesh faces."""

    alt2: np.ndarray
    rho_t: np.ndarray
    rho_h: np.ndarray
    phi: np.ndarray
    alpha: np.ndarray
    omega: np.ndarray
    refined: np.ndarray  # bool: rows recomputed exactly


def _refine_row(raw, f, ell, rad, frame, memo):
    """Overwrite row f of the kernel output with the exact pyramid with
    side lengths ell, apex distances rad (three floats each) and the given
    apex frame.  ``memo`` holds the angles of the lateral triangles met so
    far, keyed by (shorter radius, longer radius, base side).

    The base corners are 0, 1, 2 and the apex is 3.  The dihedrals come
    from the frame's squared edge lengths and volume term, which all six
    share."""
    alt2, ints, d2, vol = frame
    raw["alt2"][f] = alt2
    for s in range(3):
        t, h = (s + 1) % 3, (s + 2) % 3
        # The twin side of an edge swaps tail and head, so the key orders
        # the radii and both sides share one entry.
        lo, hi = (h, t) if rad[h] < rad[t] else (t, h)
        key = (rad[lo], rad[hi], ell[s])
        angles = memo.get(key)
        if angles is None:
            angles = memo[key] = _tri_angles((ints[3 + lo], ints[3 + hi], ints[s]))
        at_lo, at_hi, phi = angles
        # rho_t lies opposite the head's radius, rho_h opposite the tail's
        raw["rho_t"][f, s], raw["rho_h"][f, s] = (at_hi, at_lo) if lo == t else (at_lo, at_hi)
        raw["phi"][f, s] = phi
        raw["alpha"][f, s] = _dihedral(d2, t, h, s, 3, vol)
    for c in range(3):
        u, v = (c + 1) % 3, (c + 2) % 3
        raw["omega"][f, c] = _dihedral(d2, 3, c, u, v, vol)


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


def solve_pyramids(ell, rad, base=None) -> PyramidBatch:
    """Solve the pyramid over every face; raises PyramidError if any face
    admits none.  ``base`` is ``kernels.pyramid_base(ell)``, if the caller
    keeps it.

    Rows the kernel flags are redone exactly in two phases.  The first
    decides the pyramid of every flagged row in face order, so a face
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
    each row on its own gives, since every double is the rounding of a
    value that does not depend on the corner order; that they equal what
    the ``mpf`` oracle gives, bit for bit, is checked by test, since the
    oracle's 50-digit values of one pyramid in two corner orders need not
    round alike.
    """
    ell = np.asarray(ell, dtype=float)
    rad = np.asarray(rad, dtype=float)
    raw = kernels.face_pyramids(ell, rad, base)
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

    def folds(self):
        """The side slots whose dihedral is a fold, when the body is flat;
        None otherwise.  Flat means every theta lies within FOLD_TOL of 0
        (a fold on the rim) or of pi (a flat edge), with at least one
        fold.  ``embed.place_faces`` lays a flat body out with exactly
        those dihedrals, and ``solver.solve_path`` stops there."""
        fold = np.abs(self.theta) <= FOLD_TOL
        if fold.any() and (fold | (np.abs(math.pi - self.theta) <= FOLD_TOL)).all():
            return fold
        return None


def _pyramid_base(mesh):
    return kernels.pyramid_base(mesh.ell)


class GeneralizedPolytope:
    """A triangulation plus apex radii, with all pyramids solved."""

    def __init__(self, mesh: CornerMesh, r):
        self.mesh = mesh
        self.r = np.asarray(r, dtype=float)
        if self.r.shape != (mesh.n_vertices,):
            raise ValueError("radius vector does not match the vertex count")
        if not np.all(self.r > 0.0):
            raise PyramidError("radii must be strictly positive")
        self.pyramids = solve_pyramids(mesh.ell, self.r[mesh.vert], mesh.cached(_pyramid_base))
        self._report = None

    @property
    def n_vertices(self):
        return self.mesh.n_vertices

    def curvature_report(self) -> CurvatureReport:
        if self._report is not None:
            return self._report
        mesh, pyr = self.mesh, self.pyramids
        omega_sum = kernels.scatter_add(self.n_vertices, mesh.vert.ravel(), pyr.omega.ravel())
        kappa = 2.0 * math.pi - omega_sum

        twin = pyr.alpha.ravel()[mesh.cached(twin_slots)]
        theta = pyr.alpha + twin.reshape(pyr.alpha.shape)
        self._report = CurvatureReport(kappa=kappa, theta=theta)
        return self._report

    @property
    def kappa(self):
        return self.curvature_report().kappa
