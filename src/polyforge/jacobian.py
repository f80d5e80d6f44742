"""Jacobian of the vertex curvatures with respect to the radii.

Assembled by scattering one closed-form contribution per directed edge
(face side).  For the half-edge e = i -> j with dihedral wings alpha_e
(own face) and alpha_-e (across), slant angles rho_e at i and rho_-e at
j, apex angle phi_e and length ell:

    dkappa_i/dr_j += (cot a_e + cot a_-e) / (ell sin rho_e sin rho_-e)
    dkappa_i/dr_i -= cos(phi_e) * the same

Loops contribute both of their directed copies to the diagonal.  The
cotangent sum is evaluated as sin(a_e + a_-e)/(sin a_e sin a_-e), which
survives the two wings cancelling near a flat edge.  Symmetry of the
result is *not* imposed; it emerges from the analytic form, so the tests
can use it as a cross-check.

The matrix is the Hessian of the dual volume: symmetric, with one
positive eigenvalue and n - 1 negative ones away from the flat limits,
and about seven nonzeros per row.  The solver needs solves with it, not
its spectrum, so it factors each assembled matrix once by dense LU
(``solver.JacobianFactor``), and LAPACK gecon reads the condition
estimate off the same factor.  Per start-state J of a random hull, on
one BLAS thread, that takes 0.02 ms at n = 20, 0.35 ms at n = 160 and
13 ms at n = 640.  SuperLU (``splu``) with the Higham-Tisseur estimate
``onenormest`` takes 0.27, 1.2 and 3.8 ms: sparse wins from n of about
320 on, dense below it, and a solve factors small matrices far more
often than large ones.  One sparse path waits until its small-n overhead
is gone (ROADMAP item 3).
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .errors import StepReductionError

# Sines below this value make the cotangent weights meaningless in double
# precision; the solver retries with a smaller deformation step.
SIN_FLOOR = 1e-10


def assemble(P) -> np.ndarray:
    """Dense d(kappa)/d(r) matrix of a generalized polytope."""
    mesh, pyr = P.mesh, P.pyramids
    n = P.n_vertices

    fidx = np.repeat(np.arange(mesh.n_faces), 3)
    sidx = np.tile(np.arange(3), mesh.n_faces)
    g = mesh.adj_face[fidx, sidx]
    s2 = mesh.adj_side[fidx, sidx]

    tail = mesh.vert[fidx, (sidx + 1) % 3]
    head = mesh.vert[fidx, (sidx + 2) % 3]
    a_own = pyr.alpha[fidx, sidx]
    a_opp = pyr.alpha[g, s2]
    rho_t = pyr.rho_t[fidx, sidx]
    rho_h = pyr.rho_h[fidx, sidx]
    phi = pyr.phi[fidx, sidx]
    ell = mesh.ell[fidx, sidx]

    sin_own, sin_opp = np.sin(a_own), np.sin(a_opp)
    sin_t, sin_h = np.sin(rho_t), np.sin(rho_h)
    if min(sin_own.min(), sin_opp.min(), sin_t.min(), sin_h.min()) < SIN_FLOOR:
        raise StepReductionError(
            "a dihedral or slant angle is too close to 0 or pi to differentiate"
        )

    cot_sum = np.sin(a_own + a_opp) / (sin_own * sin_opp)
    w = cot_sum / (ell * sin_t * sin_h)

    rows = np.concatenate([tail, tail])
    cols = np.concatenate([head, tail])
    vals = np.concatenate([w, -w * np.cos(phi)])
    return kernels.scatter_add(n, rows, cols, vals)
