"""Jacobian of the vertex curvatures with respect to the radii.

Assembled by scattering one closed-form contribution per directed edge
(face side).  For the half-edge e = i -> j with dihedral wings alpha_e
(own face) and alpha_-e (across), slant angles rho_e at i and rho_-e at
j, apex angle phi_e and length ell:

    dkappa_i/dr_j += (cot a_e + cot a_-e) / (ell sin rho_e sin rho_-e)
    dkappa_i/dr_i -= cos(phi_e) * the same

Loops contribute both of their directed copies to the diagonal.  The
cotangent sum is evaluated as sin(a_e + a_-e)/(sin a_e sin a_-e), which
survives the two wings cancelling near a flat edge.  The other factors
belong to the lateral triangle (apex, i, j), whose sides are r_i, r_j
and ell, and are algebraic in them, so no angle of it is solved.  With
its half-perimeter s and its excesses over the sides, the area A has
A^2 = s (s - r_i) (s - r_j) (s - ell) (Heron), and

    ell sin rho_e sin rho_-e = 4 A^2 / (r_i r_j ell)
    cos phi_e = 1 - 2 sin^2(phi_e / 2) = 1 - 2 (s - r_i)(s - r_j) / (r_i r_j)

Each excess is taken as a difference of sides, with the sides sorted
a >= b >= c and parenthesized as Kahan does: 16 A^2 = (a + (b + c))
(a + (b - c)) (c - (a - b)) (c + (a - b)), and 2 (s - r_j) = ell + d,
2 (s - r_i) = ell - d with d = r_i - r_j (Kahan, Miscalculating Area
and Angles of a Needle-like Triangle, 2014).  Every factor then carries
at most a few roundings relative to itself, so both stay accurate on the
needle-like lateral triangles of a flat limit, where the apex nears an
edge and s - ell is tiny; the unsorted ((r_i + r_j) - ell) / 2 loses
there up to half the digits (1.4e-6 relative on the rows of the doubled
square's path).  Each side slot is evaluated on its own, its twin with r_i and r_j
swapped: symmetry of the result is *not* imposed; it emerges from the
analytic form, so the tests can use it as a cross-check.

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
mesh's cache keeps them per order (``triangulation.CornerMesh.cached``).
A flip drops them, and they are read off the new triangulation, because
flips along the path may widen the band.  The cached index arrays own their memory and hold no
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

# Sines below this value make the cotangent weights meaningless in double
# precision; the solver retries with a smaller deformation step.
SIN_FLOOR = 1e-10
_FLAT_MESSAGE = "a dihedral or slant angle is too close to 0 or pi to differentiate"


@dataclass(frozen=True)
class BandJacobian:
    """d(kappa)/d(r) permuted to a vertex order, in the band storage of
    LAPACK gbtrf: ``ab[2k + p - q, q]`` holds J[order[p], order[q]] for
    |p - q| <= k, and the first k rows are zero room for the fill-in of
    the LU factor."""

    ab: np.ndarray  # (3k + 1, n), Fortran order
    k: int  # half-bandwidth; the pattern is symmetric, so kl = ku = k
    order: np.ndarray  # order[p] is the vertex at position p
    # The band cells a contribution can fill, each once and ascending, as
    # flat indices into ab in F order, and the column of each: every
    # other cell is zero.
    cells: np.ndarray
    cols: np.ndarray


def band_order(mesh):
    """Reverse Cuthill-McKee order of the mesh's vertices.

    Breadth-first search over the edge graph from a vertex of least
    degree, visiting each vertex's neighbors by increasing degree (ties
    by label), then reversed.  Deterministic; any permutation gives the
    same solves, the order only sets the band width of J."""
    n = mesh.n_vertices
    tail, head = mesh.side_ends()
    key = np.unique(tail * n + head)
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
    the half-bandwidth k, and the distinct cells of ``index`` with their
    columns (``BandJacobian.cells`` and ``cols``)."""

    index: np.ndarray
    k: int
    cells: np.ndarray
    cols: np.ndarray


def _band_index(mesh, order_key):
    order = np.frombuffer(order_key, dtype=np.intp)
    n = mesh.n_vertices
    # Positions p of the tails and q of the heads.  Off-diagonal
    # contributions come first, then the diagonal ones: every entry sums
    # its duplicates in this order, which ``kernels.scatter_add`` keeps.
    pos = np.empty(n, dtype=np.intp)
    pos[order] = np.arange(n)
    p, q = pos[mesh.side_ends()]
    d = p - q
    k = int(d.max())  # every side has a twin, so this is max |p - q|
    ldab = 3 * k + 1
    index = np.concatenate([d + ldab * q, ldab * p]) + 2 * k
    cells = np.unique(index)
    return _BandIndex(index, k, cells, cells // ldab)


def _lateral_factors(r_t, r_h, ell):
    """ell sin rho_t sin rho_h = 4 A^2 / (r_t r_h ell) and cos phi of the
    lateral triangles with sides r_t, r_h and ell, batched (module
    docstring).  Raises StepReductionError where a slant sine, 2 A /
    (r_t ell) or 2 A / (r_h ell), is below SIN_FLOOR."""
    # The sides sorted, a >= b >= c.
    hi, lo = np.maximum(r_t, r_h), np.minimum(r_t, r_h)
    a, b, c = np.maximum(hi, ell), np.maximum(lo, np.minimum(hi, ell)), np.minimum(lo, ell)
    a_b = a - b
    area16 = (a + (b + c)) * ((a + (b - c)) * ((c - a_b) * (c + a_b)))
    # The smaller slant sine is the one at the longer radius; a degenerate
    # triangle has sine 0.
    sin_slant = 0.5 * np.sqrt(np.maximum(area16, 0.0)) / (hi * ell)
    if sin_slant.min() < SIN_FLOOR:
        raise StepReductionError(_FLAT_MESSAGE)
    d = r_t - r_h
    # 2 (s - r_t) / r_t and 2 (s - r_h) / r_h, whose product is 4 sin^2(phi / 2)
    ex_t, ex_h = (ell - d) / r_t, (ell + d) / r_h
    return area16 / (4.0 * (r_t * r_h) * ell), 1.0 - 0.5 * ex_t * ex_h


def assemble(P, order) -> BandJacobian:
    """d(kappa)/d(r) of a generalized polytope, permuted to ``order``."""
    mesh = P.mesh
    n = P.n_vertices

    # One entry per face side, in (face, side) order.  The twin's sine is
    # a gather of the same doubles.
    a_own = P.pyramids.alpha.ravel()
    a_opp = a_own[mesh.twin]
    sin_own = np.sin(a_own)
    if sin_own.min() < SIN_FLOOR:
        raise StepReductionError(_FLAT_MESSAGE)
    sin_opp = sin_own[mesh.twin]
    r_t, r_h = P.r[mesh.side_ends()]
    lateral, cos_phi = _lateral_factors(r_t, r_h, mesh.ell.ravel())
    cot_sum = np.sin(a_own + a_opp) / (sin_own * sin_opp)
    w = cot_sum / lateral

    band = mesh.cached(_band_index, np.asarray(order, dtype=np.intp).tobytes())
    ldab = 3 * band.k + 1
    vals = np.concatenate([w, -w * cos_phi])
    ab = kernels.scatter_add(ldab * n, band.index, vals).reshape(n, ldab).T
    return BandJacobian(ab=ab, k=band.k, order=order, cells=band.cells, cols=band.cols)
