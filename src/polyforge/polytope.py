"""Generalized convex polytopes: pyramids with a common apex over the
faces of a geodesic triangulation.

Given radii r (apex distances per vertex), each face carries a pyramid
whose existence is governed by the sign of its squared altitude.
``kernels.face_pyramids`` solves all of them in double precision, and
its sign of alt2 decides every row, down to the nearly flat pyramids of
a flat limit: the construction asks of a pyramid only whether it exists
and its dihedrals to within ``FOLD_TOL``, and the doubles give both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import PyramidError
from .triangulation import CornerMesh

# A flat body's dihedrals classify once each lies within FOLD_TOL of 0 or
# pi (CurvatureReport.folds): solver.solve_path stops there, and
# embed.place_faces lays the body out with them snapped.  On a path into
# a flat limit the dihedrals lie within a few t of their classes, so they
# classify at a t somewhat below FOLD_TOL, where |kappa|_inf is still
# well under a03's bound of 1e-4.
# Genuinely 3-dimensional bodies keep their dihedrals over a hundred
# times FOLD_TOL away from 0, thin discs included, so they never classify.
FOLD_TOL = 3e-5


@dataclass
class PyramidBatch:
    """Per-face pyramid data; arrays indexed like the mesh faces: the
    dihedral ``alpha[f, s]`` along base side s and ``omega[f, c]`` along
    the apex edge to corner c.  The lateral triangles' angles are not
    kept; ``jacobian.assemble`` reads its factors off their sides."""

    alpha: np.ndarray
    omega: np.ndarray
    # All False: every row is solved in doubles.  The benchmark's tracer
    # counts refined rows through this mask.
    refined: np.ndarray


def solve_pyramids(ell, rad, base=None) -> PyramidBatch:
    """Solve the pyramid over every face; raises PyramidError naming every
    face that admits none, in face order.  ``base`` is
    ``kernels.pyramid_base(ell)``, if the caller keeps it.  Each row is
    what the kernel gives it on its own, so a batch of rows solves them
    as separate calls would."""
    raw = kernels.face_pyramids(ell, rad, base)
    ok = raw["ok"]
    if not ok.all():
        raise PyramidError(f"no apex pyramid over faces {np.flatnonzero(~ok).tolist()}")
    return PyramidBatch(alpha=raw["alpha"], omega=raw["omega"], refined=np.zeros_like(ok))


@dataclass
class CurvatureReport:
    """Curvatures and dihedrals of a generalized polytope.

    ``theta`` is indexed like the mesh's side slots: ``theta[f, s]`` is the
    total dihedral along the edge of slot 3 f + s, the sum of the two
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

        twin = pyr.alpha.ravel()[mesh.twin]
        theta = pyr.alpha + twin.reshape(pyr.alpha.shape)
        self._report = CurvatureReport(kappa=kappa, theta=theta)
        return self._report

    @property
    def kappa(self):
        return self.curvature_report().kappa
