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
positive eigenvalue and n - 1 negative ones away from the flat limits.
It couples only vertices that share an edge, about seven nonzeros per
row, so it is stored by band, never as an n x n array.  ``band_order`` numbers
the vertices once per solve in reverse Cuthill-McKee order (Cuthill and
McKee, 1969; George, 1971), which keeps the two ends of every edge close
in the order.  ``assemble`` scatters the contributions of J, permuted to
that order, straight into LAPACK band storage (``BandJacobian``).  The
scatter index and the half-bandwidth k, the largest |pos(i) - pos(j)|
over the edges, depend on the triangulation and the order alone, so the
mesh's cache keeps them per order, with the twin slot of every side
(``triangulation.CornerMesh.cached``).  A flip drops them, and they are
read off the new triangulation, because flips along the path may widen
the band.  The cached index arrays own their memory and hold no
reference to the mesh, for the reasons the triangulation module gives.
The solver factors J by banded LU with partial pivoting
(``solver.JacobianFactor``: gbtrf, then gbcon for the condition
estimate).  That is getrf on the permuted J, since no pivot can come
from outside the band.  Per start-state J of a random hull
(seed [1, n]) and of the twisted 24-gon, a factor with its condition
estimate and both norms takes, best of 5 on one BLAS thread of a 2-vCPU
Xeon host:

    n      dense getrf + gecon   band gbtrf + gbcon   k
    20     0.030 ms              0.019 ms             10
    48     0.061 ms              0.047 ms             43  (twisted 24-gon)
    160    0.36 ms               0.11 ms              33
    320    2.5 ms                0.52 ms              45
    640    13.5 ms               1.0 ms               64
    1280   74 ms                 4.6 ms               96
    2560   390 ms                25 ms                136

At n <= 48 the two cost about the same, even where the band is nearly
full, as on the twisted polygons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import StepReductionError
from .kernels import _NEXT, _NEXT2
from .triangulation import twin_slots

# Sines below this value make the cotangent weights meaningless in double
# precision; the solver retries with a smaller deformation step.
SIN_FLOOR = 1e-10


@dataclass(frozen=True)
class BandJacobian:
    """d(kappa)/d(r) permuted to a vertex order, in the band storage of
    LAPACK gbtrf: ``ab[2k + p - q, q]`` holds J[order[p], order[q]] for
    |p - q| <= k, and the first k rows are zero room for the fill-in of
    the LU factor."""

    ab: np.ndarray  # (3k + 1, n), Fortran order
    k: int  # half-bandwidth; the pattern is symmetric, so kl = ku = k
    order: np.ndarray  # order[p] is the vertex at position p


def band_order(mesh):
    """Reverse Cuthill-McKee order of the mesh's vertices.

    Breadth-first search over the edge graph from a vertex of least
    degree, visiting each vertex's neighbors by increasing degree (ties
    by label), then reversed.  Deterministic; any permutation gives the
    same solves, the order only sets the band width of J."""
    n = mesh.n_vertices
    key = np.unique(mesh.vert[:, _NEXT] * n + mesh.vert[:, _NEXT2])
    a, b = np.divmod(key, n)
    keep = a != b  # a loop couples a vertex only to itself
    a, b = a[keep], b[keep]
    deg = np.bincount(a, minlength=n)
    nbrs = b[np.lexsort((b, deg[b], a))].tolist()
    first = np.concatenate([[0], np.cumsum(deg)]).tolist()
    seen = [False] * n
    order = []
    for root in np.lexsort((np.arange(n), deg)).tolist():
        if seen[root]:
            continue
        seen[root] = True
        order.append(root)
        front = len(order) - 1
        while front < len(order):
            v = order[front]
            front += 1
            for w in nbrs[first[v] : first[v + 1]]:
                if not seen[w]:
                    seen[w] = True
                    order.append(w)
    return np.array(order[::-1], dtype=np.intp)


class _BandIndex(NamedTuple):
    """Where ``assemble`` scatters the contributions of one triangulation
    in one vertex order: the flat index of each into the F-order band,
    and the half-bandwidth k."""

    index: np.ndarray
    k: int


def _band_index(mesh, order_key):
    order = np.frombuffer(order_key, dtype=np.intp)
    n = mesh.n_vertices
    # Positions p of the tails and q of the heads.  Off-diagonal
    # contributions come first, then the diagonal ones: every entry sums
    # its duplicates in this order, which ``kernels.scatter_add`` keeps.
    pos = np.empty(n, dtype=np.intp)
    pos[order] = np.arange(n)
    at = pos[mesh.vert]
    p, q = at[:, _NEXT].ravel(), at[:, _NEXT2].ravel()
    d = p - q
    k = int(d.max())  # every side has a twin, so this is max |p - q|
    ldab = 3 * k + 1
    return _BandIndex(np.concatenate([d + ldab * q, ldab * p]) + 2 * k, k)


def assemble(P, order) -> BandJacobian:
    """d(kappa)/d(r) of a generalized polytope, permuted to ``order``."""
    mesh, pyr = P.mesh, P.pyramids
    n = P.n_vertices

    # One entry per face side, in (face, side) order.
    a_own = pyr.alpha.ravel()
    a_opp = a_own[mesh.cached(twin_slots)]
    sin_own, sin_opp = np.sin(a_own), np.sin(a_opp)
    sin_t, sin_h = np.sin(pyr.rho_t.ravel()), np.sin(pyr.rho_h.ravel())
    if min(sin_own.min(), sin_opp.min(), sin_t.min(), sin_h.min()) < SIN_FLOOR:
        raise StepReductionError(
            "a dihedral or slant angle is too close to 0 or pi to differentiate"
        )

    cot_sum = np.sin(a_own + a_opp) / (sin_own * sin_opp)
    w = cot_sum / (mesh.ell.ravel() * sin_t * sin_h)

    band = mesh.cached(_band_index, np.asarray(order, dtype=np.intp).tobytes())
    ldab = 3 * band.k + 1
    vals = np.concatenate([w, -w * np.cos(pyr.phi.ravel())])
    ab = kernels.scatter_add(ldab * n, band.index, vals).reshape(n, ldab).T
    return BandJacobian(ab=ab, k=band.k, order=order)
