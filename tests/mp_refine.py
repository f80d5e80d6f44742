"""The 50-digit pyramid refinement written with mpmath's ``mpf`` objects.

This is the straightforward form of ``polytope``'s high-precision path:
every quantity an ``mpf`` under ``mp.workdps(50)``, every operator the
overloaded one, every angle by its own half-angle formula, every
dihedral from explicit coordinates.  ``polytope`` works in exact
integers instead, takes all three angles of a triangle from one Heron
product and the dihedrals from squared edge lengths, and rounds each
angle once from a fixed-point atan2, so the two agree bit for bit by
test, not by construction; the tests hold the package to that.

This module is a test oracle: nothing in the package imports it.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

from polyforge import kernels
from polyforge.errors import PyramidError, TriangleError

_REFINE_DPS = 50

ANGLE_KEYS = ("rho_t", "rho_h", "phi", "alpha", "omega")


def _mp_angle_opp(a, b, c):
    """The half-angle formula of ``kernels._angle_opp`` at mpmath precision,
    for the rows the double-precision kernel cannot resolve."""
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


def _refine_pyramid(lengths, radii):
    """Redo one pyramid at 50 digits.  Returns a dict of float rows, or
    None when the squared altitude is non-positive (no pyramid)."""
    with mp.workdps(_REFINE_DPS):
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


def solve_pyramids(ell, rad):
    """The pyramid batch as ``polytope.solve_pyramids`` returned it with
    this refinement: a dict of the kernel's arrays with every flagged row
    redone in face order, plus the ``refined`` mask."""
    ell = np.asarray(ell, dtype=float)
    rad = np.asarray(rad, dtype=float)
    raw = kernels.face_pyramids(ell, rad)
    ok = raw.pop("ok")
    raw["refined"] = np.zeros(ell.shape[0], dtype=bool)
    dead = []
    for f in np.flatnonzero(ok != 1):
        if ok[f] == -1:
            dead.append(int(f))
            continue
        row = _refine_pyramid(ell[f], rad[f])
        if row is None:
            dead.append(int(f))
            continue
        raw["refined"][f] = True
        raw["alt2"][f] = row["alt2"]
        for key in ANGLE_KEYS:
            raw[key][f] = row[key]
    if dead:
        raise PyramidError(f"no apex pyramid over faces {dead}")
    return raw
