"""Generalized convex polytopes: pyramids with a common apex over the
faces of a geodesic triangulation.

Given radii r (apex distances per vertex), each face carries a pyramid
whose existence is governed by the sign of its squared altitude.
The fast kernels solve all pyramids in double precision and flag faces
whose altitude is too small to trust; those rows are redone with mpmath
(50 digits), which keeps the late, nearly flat stages of a deformation
honest without slowing the generic case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from . import kernels
from .errors import PyramidError, TriangleError
from .triangulation import BAD_TOL, CornerMesh, badness_scan

THETA_TOL = 1e-9

_REFINE_DPS = 50


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
        x2 = (l1 * l1 + l2 * l2 - l0 * l0) / (2 * l2)
        y2sq = (l1 - x2) * (l1 + x2)
        if y2sq <= 0:
            raise TriangleError("degenerate base triangle")
        y2 = mp.sqrt(y2sq)
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
        gamma = [
            _mp_angle_opp(ell[c], ell[(c + 1) % 3], ell[(c + 2) % 3]) for c in range(3)
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
            "gamma": [float(x) for x in gamma],
            "rho_t": [float(x) for x in rho_t],
            "rho_h": [float(x) for x in rho_h],
            "phi": [float(x) for x in phi],
            "alpha": [float(x) for x in alpha],
            "omega": [float(x) for x in omega],
        }


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

    @property
    def altitude(self):
        return np.sqrt(np.maximum(self.alt2, 0.0))


def solve_pyramids(ell, rad) -> PyramidBatch:
    """Solve the pyramid over every face; raises PyramidError if any face
    admits none."""
    ell = np.asarray(ell, dtype=float)
    rad = np.asarray(rad, dtype=float)
    raw = kernels.face_pyramids(ell, rad)
    ok = raw["ok"]
    refined = np.zeros(ell.shape[0], dtype=bool)
    dead = []
    for f in np.flatnonzero(ok != 1):
        if ok[f] == -1:
            dead.append(int(f))
            continue
        row = _refine_pyramid(ell[f], rad[f])
        if row is None:
            dead.append(int(f))
            continue
        refined[f] = True
        raw["alt2"][f] = row["alt2"]
        for key in ("gamma", "rho_t", "rho_h", "phi", "alpha", "omega"):
            raw[key][f] = row[key]
    if dead:
        raise PyramidError(f"no apex pyramid over faces {dead}")
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
    total_height: float  # sum r*kappa + sum ell*(pi - theta)


class GeneralizedPolytope:
    """A triangulation plus apex radii, with all pyramids solved."""

    def __init__(self, mesh: CornerMesh, r, deficits=None, validate=True):
        self.mesh = mesh
        self.r = np.asarray(r, dtype=float)
        if self.r.shape != (mesh.n_vertices,):
            raise ValueError("radius vector does not match the vertex count")
        if np.any(self.r <= 0.0):
            raise PyramidError("radii must be strictly positive")
        self.deficits = None if deficits is None else np.asarray(deficits, dtype=float)
        self.pyramids = solve_pyramids(mesh.ell, self.r[mesh.vert])
        self._report = None
        if validate:
            self.validate()

    @property
    def n_vertices(self):
        return self.mesh.n_vertices

    @property
    def weights(self):
        return self.r**2

    def validate(self):
        """Existence (already enforced), weighted-Delaunay goodness, and
        dihedral convexity, in that order."""
        _, vals = badness_scan(self.mesh, self.weights)
        scale = max(1.0, float(self.weights.max()))
        worst = float(vals.max())
        if worst > BAD_TOL * scale:
            raise PyramidError(
                f"triangulation is not weighted-Delaunay for q = r^2 "
                f"(worst margin {worst!r})"
            )
        rep = self.curvature_report()
        if np.any(rep.theta > math.pi + THETA_TOL):
            raise PyramidError("edge dihedral exceeds pi: not convex")

    def curvature_report(self) -> CurvatureReport:
        if self._report is not None:
            return self._report
        mesh, pyr = self.mesh, self.pyramids
        omega_sum = np.zeros(self.n_vertices)
        np.add.at(omega_sum, mesh.vert.ravel(), pyr.omega.ravel())
        kappa = 2.0 * math.pi - omega_sum

        edges = mesh.edges()
        theta = np.empty(len(edges))
        height = float(np.dot(self.r, kappa))
        for e, (f, s) in enumerate(edges):
            g, s2 = mesh.neighbor(f, s)
            theta[e] = pyr.alpha[f, s] + pyr.alpha[g, s2]
            height += float(mesh.ell[f, s]) * (math.pi - theta[e])
        self._report = CurvatureReport(
            kappa=kappa, edges=edges, theta=theta, total_height=height
        )
        return self._report

    @property
    def kappa(self):
        return self.curvature_report().kappa
