"""Reconstruction in R^3: unfold the final triangulation one
breadth-first level at a time, folding along each edge by its dihedral
angle.

Face 0 sits in the z = 0 plane, counterclockwise from +z, with the
body's interior below; each breadth-first level of faces is then placed
at once, with array arithmetic, by unfolding across the edges it shares
with the level before (``_unfold``).  A flat body, whose dihedrals all
lie within ``FOLD_TOL`` of 0 or pi, is unfolded with them snapped to
exactly 0 and pi, so a doubly covered polygon closes to rounding level.
Per-vertex positions are the means of their per-face placements (the
spread is the closure residual), tightened by a few Gauss-Newton sweeps
on the edge lengths.  Once the curvatures are only kappa_stop away from
zero this reproduces the convex polytope to machine-level accuracy; the
apex is recovered separately as the weighted Fermat point of the
vertices.

The polish.  Edge e = (i, j) of length ell_e has the residual
|v_i - v_j| - ell_e and the Jacobian row u_e (e_i - e_j), with u_e the
unit vector from v_j to v_i.  Each sweep is a Levenberg-Marquardt step
(Marquardt, 1963) with a damping at rounding level: it solves the
normal equations

    (J^T J + mu^2 I) delta = -J^T res,   mu^2 = 2 (kd + 1)^2 eps max diag,

and removes the step's component along the six rigid motions, which
leaves the minimum-norm Gauss-Newton step (derivations in ``_polish``).
J^T J couples only the vertices that share an edge, the pattern of the
curvature Jacobian, so it is assembled with the vertices in the same
reverse Cuthill-McKee order (``jacobian.band_order``), the three
coordinates of a vertex adjacent, straight into LAPACK's symmetric band
storage, and factored by banded Cholesky (pbtrf, then pbtrs).  Its
half-bandwidth is kd = 3k + 2, where k is the largest |pos(i) - pos(j)|
over the edges; the band takes (kd + 1) x 3n doubles, 2.86 MiB at
n = 640.  One polish on the final state of a random hull (seed [1, n]),
best of 5 on one BLAS thread of a 2-vCPU Xeon host, against the LSQR
sweep it replaced (scipy's, with atol = btol = 0):

    n      k     LSQR        band Cholesky
    160    33    12.8 ms     0.94 ms
    320    45    21.5 ms     2.0 ms
    640    64    47 ms       4.9 ms
    1280   96    110 ms      13.3 ms
    2560   136   268 ms      38.7 ms

Each of these takes one sweep and ends at max |res| about 1e-16 diam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from . import jacobian, kernels
from .errors import EmbedError
from .kernels import _NEXT, _NEXT2
from .triangulation import CornerMesh, merge_regions, twin_slots

CLOSURE_TOL = 1e-6  # * diameter
DEGENERATE_VOL_TOL = 1e-8  # * diameter^3
MERGE_TOL = 1e-6  # |pi - theta| below this merges the faces
# A body whose every dihedral lies within FOLD_TOL of 0 (a fold on the
# rim) or of pi (a flat edge), with at least one fold, is laid out with
# its dihedrals exactly 0 and pi: a doubly covered convex polygon has
# exactly those, so the snapped layout is its realization, and the
# closure and per-sheet orientation checks still vet it.  Paths to a
# flat body stop at t up to 3.5e-6 (the 64-gon's floor stop), where the
# dihedrals lie within about 1.5 t of the two classes: about 5e-6 at
# most, and 1e-4 leaves a factor of 20 above that.  Genuinely
# 3-dimensional bodies keep their dihedrals two orders of magnitude
# further from 0: the rim dihedrals of thin discs measure 1.6e-2 and
# more (the 300:1 disc at n = 40), and catalog solids and hulls 1.2 and
# more.
FOLD_TOL = 1e-4
APEX_TOL = 1e-9  # * total weight
APEX_MAX_ITER = 10000
POLISH_SWEEPS = 3  # at most; each ends early once the residual is at rounding level

# The polish's damping is _MU2_C (kd + 1)^2 times the largest diagonal
# entry of its band (derivation in _polish).
_MU2_C = 2.0 * float(np.finfo(np.float64).eps)


@dataclass
class EmbeddedPolytope:
    vertices: np.ndarray  # (n, 3) averaged and polished positions
    faces: tuple  # triangles, outward counterclockwise
    closure_residual: float
    diameter: float
    volume: float  # signed; positive for outward orientation
    degenerate: bool
    merged_faces: tuple | None = None  # polygons after coplanar merging
    apex: np.ndarray | None = None  # set once solve_apex has run

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    def as_json(self):
        import json

        doc = {
            "vertices": [[float(x) for x in row] for row in self.vertices],
            "faces": [list(face) for face in self.faces],
            "merged_faces": None
            if self.merged_faces is None
            else [list(face) for face in self.merged_faces],
            "apex": None if self.apex is None else [float(x) for x in self.apex],
            "volume": float(self.volume),
            "degenerate": bool(self.degenerate),
            "closure_residual": float(self.closure_residual),
        }
        return json.dumps(doc, sort_keys=True, indent=2)


def place_faces(P, merge_coplanar=False):
    """Develop the polytope's boundary into R^3.

    ``P`` is a solved generalized polytope whose curvatures are already
    negligible.  Its dihedrals are snapped to exactly 0 or pi when the
    body is flat (``FOLD_TOL``).  Raises EmbedError when the development
    fails to close up to CLOSURE_TOL, when a snapped sheet is folded
    over, or when the final mesh still carries a loop.
    """
    mesh = P.mesh
    theta = P.curvature_report().theta
    # Side s runs from corner (s+1)%3 to corner (s+2)%3.  The first loop
    # slot in (f, s) order is its edge's canonical slot.
    tail = mesh.vert[:, [1, 2, 0]]
    loop = tail == mesh.vert[:, [2, 0, 1]]
    if loop.any():
        raise EmbedError(
            f"final mesh has a geodesic loop at vertex {tail[loop][0]}; "
            "curvature is not small enough"
        )

    fold = np.abs(theta) <= FOLD_TOL
    flat = fold.any() and (fold | (np.abs(math.pi - theta) <= FOLD_TOL)).all()
    if flat:
        theta = np.where(fold, 0.0, math.pi)
    pos, _ = _unfold(mesh, theta)

    n = mesh.n_vertices
    corner = mesh.vert.ravel()
    # Coordinate c of vertex v sums at 3 v + c.
    sums = kernels.scatter_add(3 * n, (3 * corner[:, None] + np.arange(3)).ravel(), pos.ravel())
    counts = kernels.scatter_add(n, corner, np.ones(corner.size))
    verts = sums.reshape(n, 3) / counts[:, None]

    spread = _closure_spread(pos.reshape(-1, 3), corner)
    diam = _diameter(verts)
    if spread > CLOSURE_TOL * diam:
        raise EmbedError(
            f"development does not close: spread {spread!r} vs diameter {diam!r}"
        )
    if flat:
        _check_sheets(mesh, pos, fold)

    verts = _polish(mesh, verts, diam)

    faces = tuple(map(tuple, mesh.vert.tolist()))
    volume = _signed_volume(verts, faces)
    degenerate = abs(volume) <= DEGENERATE_VOL_TOL * diam**3

    merged = None
    if merge_coplanar:
        coplanar = np.argwhere(np.abs(math.pi - theta) <= MERGE_TOL)
        merged = []
        for region in merge_regions(mesh, coplanar):
            if len(region.cycles) != 1:
                raise EmbedError("merged face is not a disk")
            cycle = region.cycles[0]
            merged.append(
                tuple(int(mesh.vert[f, (s + 1) % 3]) for f, s in cycle)
            )
        merged = tuple(merged)

    return EmbeddedPolytope(
        vertices=verts,
        faces=faces,
        closure_residual=spread,
        diameter=diam,
        volume=volume,
        degenerate=degenerate,
        merged_faces=merged,
    )


def _rows_dot(x, y):
    """Row-wise dot products of two (k, 3) arrays, as stacked (1, 3) @
    (3, 1) products: each is the dot that ``@`` and ``np.linalg.norm``
    take on single 3-vectors, bit for bit."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _rows_unit(v):
    return v / np.sqrt(_rows_dot(v, v))[:, None]


def _unfold(mesh, theta):
    """Corner positions (nf, 3, 3) and outward normals (nf, 3) of the
    faces unfolded across their dihedrals ``theta`` (nf, 3).

    Face 0 sits in the z = 0 plane with normal +z.  The breadth-first
    tree is found first, in plain Python: the frontier's sides are
    scanned in (frontier order, side) order and the first claim on each
    unplaced face wins, which is the tree a face-by-face FIFO builds.
    Then each level is placed at once.  A face g across side s of f is
    hinged on the shared edge a -> b of f: w_in is the unit vector in
    f's plane, perpendicular to the edge and into f, and with psi = pi -
    theta[f, s] g's plane holds

        w_out = -w_in cos psi - n_f sin psi,   n_g = n_f cos psi - w_in sin psi.

    Its third corner lies ap along the edge from b and bp along w_out,
    from g's own side lengths; both are taken for every slot at once.
    The cosines and sines are ``math``'s, one per face, and the dots are
    ``_rows_dot``'s, so every position is the one the face-by-face loop
    computes.  Everything that does not depend on an earlier level is
    gathered for the whole tree before the first level is placed, since a
    flat polygon's tree has about one level per vertex."""
    nf = mesh.n_faces
    ell = mesh.ell
    # Corner s2 of face g lies ap along side s2 from the side's tail
    # corner (s2 + 1) % 3, toward its head, and bp off the side.
    l_edge = ell
    l_tail = ell[:, _NEXT2]  # from the tail corner to corner s2
    l_head = ell[:, _NEXT]
    ap = (l_tail * l_tail + l_edge * l_edge - l_head * l_head) / (2.0 * l_edge)
    h2 = l_tail * l_tail - ap * ap
    bp = np.sqrt(np.where(h2 < 0.0, 0.0, h2))  # max(h2, 0.0), -0.0 and all

    # Slot 3 f + s of each tree edge, f the placed face; ends[i] closes
    # level i + 1.
    adj = mesh.adj_face.tolist()
    placed = [False] * nf
    placed[0] = True
    slots, ends = [], []
    frontier = [0]
    while frontier:
        claimed = []
        for f in frontier:
            for s, g in enumerate(adj[f]):
                if not placed[g]:
                    placed[g] = True
                    slots.append(3 * f + s)
                    claimed.append(g)
        ends.append(len(slots))
        frontier = claimed

    # Corner c of face f is row 3 f + c; slot 3 f + s hinges on the
    # corners tail[3 f + s] -> head[3 f + s] and faces corner 3 f + s.
    corner = 3 * np.arange(nf)[:, None]
    tail = (corner + _NEXT).ravel()
    head = (corner + _NEXT2).ravel()
    own = np.array(slots, dtype=np.intp)
    twin = mesh.cached(twin_slots)[own]
    face, across = own // 3, twin // 3
    own_tail, own_head = tail[own], head[own]
    twin_tail, twin_head = tail[twin], head[twin]
    ap_twin, bp_twin = ap.ravel()[twin][:, None], bp.ravel()[twin][:, None]
    psi = (math.pi - theta.ravel()[own]).tolist()
    cos = np.array([math.cos(x) for x in psi])[:, None]
    sin = np.array([math.sin(x) for x in psi])[:, None]

    pos = np.full((3 * nf, 3), np.nan)
    normal = np.full((nf, 3), np.nan)
    pos[0] = (0.0, 0.0, 0.0)
    pos[1] = (ell[0, 2], 0.0, 0.0)
    pos[2] = (ap[0, 2], bp[0, 2], 0.0)
    normal[0] = (0.0, 0.0, 1.0)

    lo = 0
    for hi in ends[:-1]:
        level = slice(lo, hi)
        lo = hi
        # g sees the edge a -> b reversed: its tail corner lies at b.
        a = pos[own_tail[level]]
        b = pos[own_head[level]]
        u = _rows_unit(b - a)
        w_in = pos[own[level]] - a
        w_in = _rows_unit(w_in - _rows_dot(w_in, u)[:, None] * u)
        n_f = normal[face[level]]
        c, s = cos[level], sin[level]
        w_out = -w_in * c - n_f * s
        pos[twin_tail[level]] = b
        pos[twin_head[level]] = a
        pos[twin[level]] = b + ap_twin[level] * (-u) + bp_twin[level] * w_out
        normal[across[level]] = n_f * c - w_in * s
    return pos.reshape(nf, 3, 3), normal


def _check_sheets(mesh, pos, fold):
    """Raise EmbedError unless every sheet of a flat layout keeps one
    orientation.  The sheets are the regions joined across the slots
    not in ``fold``; face 0 lies in the z = 0 plane, so the z component
    of a face's edge cross product is its signed area in that plane."""
    area = np.cross(pos[:, 1] - pos[:, 0], pos[:, 2] - pos[:, 0])[:, 2]
    for region in merge_regions(mesh, np.argwhere(~fold)):
        sheet = area[list(region.faces)]
        if (sheet > 0.0).any() and (sheet < 0.0).any():
            raise EmbedError(
                f"flat layout folds the sheet of face {region.faces[0]} over"
            )


def _closure_spread(points, labels):
    """Largest distance between two corner placements of one vertex.

    Sorting the corners by vertex puts each vertex's placements in a
    run; pairs ``gap`` apart in the sorted order are compared at once,
    for every gap up to the longest run.  sqrt is monotone, so the root
    of the largest squared distance is the largest distance."""
    order = np.argsort(labels, kind="stable")
    p, lab = points[order], labels[order]
    best = 0.0
    for gap in range(1, len(lab)):
        same = lab[gap:] == lab[:-gap]
        if not same.any():
            break
        diffs = p[gap:][same] - p[:-gap][same]
        best = max(best, float((diffs**2).sum(axis=1).max()))
    return math.sqrt(best)


_DIAMETER_BLOCK = 64  # rows of the distance matrix formed at once


def _diameter(verts):
    """Largest vertex distance, from blocks of rows of the upper
    triangle of the squared-distance matrix.  The squares are summed
    x + y + z, in the order ``sum(axis=1)`` uses on a row of three."""
    x, y, z = (np.ascontiguousarray(verts[:, k]) for k in range(3))
    best = 0.0
    for lo in range(0, len(verts), _DIAMETER_BLOCK):
        hi = lo + _DIAMETER_BLOCK
        d2 = (
            (x[lo:] - x[lo:hi, None]) ** 2
            + (y[lo:] - y[lo:hi, None]) ** 2
            + (z[lo:] - z[lo:hi, None]) ** 2
        )
        best = max(best, float(d2.max()))
    return math.sqrt(best)


def _polish(mesh, verts, diam):
    """At most ``POLISH_SWEEPS`` Gauss-Newton sweeps on the edge-length
    residuals, stopping once max |res| < 1e-12 diam.

    Each sweep solves (A + mu^2 I) delta = -J^T res, A = J^T J, by one
    banded Cholesky factor.  Edge (i, j) adds u u^T to the diagonal
    blocks of i and j and -u u^T to the blocks between them; one
    ``kernels.scatter_add`` puts the upper triangles of those straight
    into the band, which pbtrf then factors in place.

    The damping.  A is positive semidefinite, so |a_rc| <= max_k a_kk,
    and a row of the band holds at most 2 kd + 1 entries: ||A|| <=
    (2 kd + 1) max_k a_kk.  In floating point, band Cholesky returns the
    exact factor of a matrix within about (kd + 1) eps ||A|| of its input
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 10), so
    it cannot break down on A + mu^2 I once mu^2 >= (kd + 1)(2 kd + 1)
    eps max_k a_kk.  The shift used, mu^2 = 2 (kd + 1)^2 eps max_k a_kk,
    is that bound rounded up, since 2 kd + 1 < 2 (kd + 1): no larger than
    a factor that cannot fail needs.  Along a singular vector of J with
    singular value sigma it scales the step by sigma^2 / (sigma^2 + mu^2),
    a change at rounding level unless sigma^2 is itself near mu^2.  If
    pbtrf still fails, EmbedError is raised; there is no other path.

    The gauge.  A is singular along the six infinitesimal rigid motions,
    where the damped matrix has eigenvalue mu^2, so rounding in the
    right-hand side comes back along them amplified by 1 / mu^2.  Every
    step is projected off them (``_drop_rigid``); what is left is the
    minimum-norm Gauss-Newton step, the one a dense least-squares solve
    of J delta = -res returns.  On a flat body A is singular also
    along the out-of-plane flexes, and there the damping bounds them."""
    f, s = mesh.cached(CornerMesh.edges)
    i = mesh.vert[f, (s + 1) % 3]
    j = mesh.vert[f, (s + 2) % 3]
    length = mesh.ell[f, s]
    n = len(verts)
    pos = np.empty(n, dtype=np.intp)
    pos[mesh.cached(jacobian.band_order)] = np.arange(n)
    # Unknown 3 pos[v] + a is coordinate a of vertex v.
    p, q = pos[i][:, None], pos[j][:, None]
    lo, hi = np.minimum(p, q), np.maximum(p, q)
    kd = 3 * int((hi - lo).max()) + 2
    ldab = kd + 1

    def at(r, c):
        """Flat index of entry (r, c), r <= c, in the F-order (ldab, 3n)
        upper band: row kd + r - c of column c."""
        return r + kd * (c + 1)

    # Per edge: the upper triangles of the two diagonal blocks, then the
    # off-diagonal block row by row.
    a, b = np.triu_indices(3)
    row, col = np.divmod(np.arange(9), 3)
    index = np.concatenate(
        [
            at(3 * p + a, 3 * p + b),
            at(3 * q + a, 3 * q + b),
            at(3 * lo + row, 3 * hi + col),
        ],
        axis=1,
    ).ravel()
    xyz = np.arange(3)
    rhs_index = np.concatenate([3 * p + xyz, 3 * q + xyz], axis=1).ravel()
    v = verts.copy()
    for _ in range(POLISH_SWEEPS):
        d = v[i] - v[j]
        dist = np.linalg.norm(d, axis=1)
        res = dist - length
        if float(np.abs(res).max()) < 1e-12 * diam:
            break
        u = d / dist[:, None]
        uu = u[:, :, None] * u[:, None, :]
        upper = uu[:, a, b]
        vals = np.concatenate([upper, upper, -uu.reshape(-1, 9)], axis=1)
        ab = kernels.scatter_add(ldab * 3 * n, index, vals.ravel()).reshape(3 * n, ldab).T
        diag = ab[kd]
        diag += _MU2_C * (kd + 1) ** 2 * float(diag.max())
        ab, info = lapack.dpbtrf(ab, overwrite_ab=1)
        if info > 0:
            raise EmbedError(
                f"polish normal matrix is not positive definite (pbtrf info {info})"
            )
        ur = u * res[:, None]
        rhs = kernels.scatter_add(3 * n, rhs_index, np.concatenate([-ur, ur], axis=1).ravel())
        x, _ = lapack.dpbtrs(ab, rhs, overwrite_b=1)
        del ab  # before the next sweep scatters its own band
        v += _drop_rigid(v, x.reshape(n, 3)[pos])
    return v


def _drop_rigid(v, delta):
    """``delta`` (n, 3) less its component along the six infinitesimal
    rigid motions of the points ``v``: the three translations and the
    rotations e_a x (v_i - centroid), made orthonormal by QR."""
    n = len(v)
    basis = np.zeros((n, 3, 6))
    basis[:, :, :3] = np.eye(3)
    basis[:, :, 3:] = np.cross(np.eye(3), (v - v.mean(axis=0))[:, None, :]).transpose(0, 2, 1)
    q, _ = np.linalg.qr(basis.reshape(3 * n, 6))
    flat = delta.ravel()
    return (flat - q @ (q.T @ flat)).reshape(n, 3)


def _signed_volume(verts, faces):
    """Six times the volume is the sum of one determinant per face, taken
    about the centroid.  The determinants are summed in face order, as
    ``cumsum`` does; ``np.sum`` would pair them up instead."""
    corners = verts[np.array(faces)] - verts.mean(axis=0)
    return float(np.cumsum(np.linalg.det(corners))[-1]) / 6.0


@dataclass
class ApexSolve:
    point: np.ndarray
    residual: float  # |sum of weighted unit directions| / sum of weights
    iterations: int


def solve_apex(points, weights) -> ApexSolve:
    """Weighted Fermat point: minimize sum_i w_i |p_i - a|.

    Damped Weiszfeld iteration with a Newton finish.  The residual is the
    norm of the weighted unit-vector sum, relative to the total weight.
    """
    pts = np.asarray(points, dtype=float)
    w = np.asarray(weights, dtype=float)
    if np.any(w <= 0.0):
        raise ValueError("weights must be positive")
    wsum = float(w.sum())
    a = (w[:, None] * pts).sum(axis=0) / wsum
    eps = 1e-14 * (1.0 + float(np.abs(pts).max()))

    def residual_at(x):
        d = np.sqrt(((pts - x) ** 2).sum(axis=1))
        d = np.maximum(d, eps)
        u = (pts - x) / d[:, None]
        return float(np.linalg.norm((w[:, None] * u).sum(axis=0))) / wsum, d, u

    it = 0
    res, d, u = residual_at(a)
    while res > APEX_TOL and it < APEX_MAX_ITER:
        it += 1
        coef = w / d
        a_new = (coef[:, None] * pts).sum(axis=0) / coef.sum()
        # Damp: never move further than the nearest data point distance.
        step = a_new - a
        limit = float(d.min())
        norm = float(np.linalg.norm(step))
        if norm > limit:
            step *= limit / norm
        a = a + step
        res, d, u = residual_at(a)
        if it >= 20 and it % 5 == 0:
            # Newton acceleration once Weiszfeld settles.
            h = np.zeros((3, 3))
            for k in range(len(pts)):
                uk = u[k][:, None]
                h += w[k] * (np.eye(3) - uk @ uk.T) / d[k]
            try:
                a = a - np.linalg.solve(h, -(w[:, None] * u).sum(axis=0))
            except np.linalg.LinAlgError:
                pass
            res, d, u = residual_at(a)
    return ApexSolve(point=a, residual=res, iterations=it)


def congruence_check(verts_a, verts_b):
    """RMS deviation after the best alignment of matching vertices by a
    rigid motion or a reflection.

    Accepts EmbeddedPolytope instances or raw (n, 3) arrays with the same
    vertex labelling.  Returns (rms, reflected).
    """
    A = np.asarray(getattr(verts_a, "vertices", verts_a), dtype=float)
    B = np.asarray(getattr(verts_b, "vertices", verts_b), dtype=float)
    if A.shape != B.shape:
        raise ValueError("vertex sets differ in shape")
    Ac = A - A.mean(axis=0)
    Bc = B - B.mean(axis=0)

    def rms_for(flip):
        Bx = Bc * np.array([1.0, 1.0, -1.0]) if flip else Bc
        h = Ac.T @ Bx
        u, _, vt = np.linalg.svd(h)
        d = np.sign(np.linalg.det(u @ vt))
        rot = u @ np.diag([1.0, 1.0, d]) @ vt
        return float(np.sqrt(((Ac - Bx @ rot.T) ** 2).sum() / len(A)))

    best, alt = rms_for(False), rms_for(True)
    return (alt, True) if alt < best else (best, False)


def apex_boundary_distance(embedded: EmbeddedPolytope, apex):
    """Distance from the apex to the boundary of the body.

    For full-dimensional bodies: the least distance to a face plane,
    skipping faces of zero area.  For flat ones: the in-plane distance to
    the polygon's boundary.

    The face normals' norms and dot products are stacked (1, 3) @ (3, 1)
    products, which give the bits of ``np.linalg.norm`` and ``@`` on single
    3-vectors; an einsum or a row sum need not.
    """
    verts = embedded.vertices
    a = np.asarray(apex, dtype=float)
    if not embedded.degenerate:
        vi, vj, vk = np.moveaxis(verts[np.array(embedded.faces)], 1, 0)
        nv = np.cross(vj - vi, vk - vi)
        norm = np.sqrt((nv[:, None, :] @ nv[:, :, None])[:, 0, 0])
        height = np.abs(((a - vi)[:, None, :] @ nv[:, :, None])[:, 0, 0])
        keep = norm != 0.0
        return float((height[keep] / norm[keep]).min(initial=np.inf))
    centered = verts - verts.mean(axis=0)
    _, _, vt = np.linalg.svd(centered)
    plane = vt[:2]
    p2 = centered @ plane.T
    a2 = (a - verts.mean(axis=0)) @ plane.T
    hull = _planar_hull(p2)
    best = np.inf
    for idx in range(len(hull)):
        p, q = p2[hull[idx]], p2[hull[(idx + 1) % len(hull)]]
        e = q - p
        t = float(np.clip((a2 - p) @ e / (e @ e), 0.0, 1.0))
        best = min(best, float(np.linalg.norm(a2 - (p + t * e))))
    return best


def _planar_hull(p2):
    """Indices of the convex hull, counterclockwise (monotone chain)."""
    order = sorted(range(len(p2)), key=lambda i: (p2[i, 0], p2[i, 1]))

    def build(seq):
        out = []
        for i in seq:
            while len(out) >= 2:
                o, b = p2[out[-2]], p2[out[-1]]
                if (b[0] - o[0]) * (p2[i, 1] - o[1]) - (b[1] - o[1]) * (
                    p2[i, 0] - o[0]
                ) <= 0:
                    out.pop()
                else:
                    break
            out.append(i)
        return out

    lower = build(order)
    upper = build(reversed(order))
    return lower[:-1] + upper[:-1]


def as_obj(embedded: EmbeddedPolytope, merged=False):
    """Wavefront OBJ text; faces counterclockwise seen from outside."""
    faces = embedded.merged_faces if merged and embedded.merged_faces else embedded.faces
    flip = embedded.volume < 0 and not embedded.degenerate
    lines = ["# polyforge output", f"# faces: {len(faces)}"]
    for x, y, z in embedded.vertices:
        lines.append(f"v {x:.17g} {y:.17g} {z:.17g}")
    for face in faces:
        cycle = tuple(reversed(face)) if flip else face
        lines.append("f " + " ".join(str(v + 1) for v in cycle))
    return "\n".join(lines) + "\n"
