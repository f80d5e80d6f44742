"""Geodesic triangulations of a cone surface, with diagonal flips.

The mesh is a corner table.  Face ``f`` has corners 0, 1, 2; side ``s``
is opposite corner ``s`` and is traversed from corner ``(s+1)%3`` (tail)
to corner ``(s+2)%3`` (head).  ``adj`` maps each side to the side it is
glued to, with reversed traversal, making the whole thing an oriented
closed surface.  Vertices may repeat around a face: loops and multiple
edges are ordinary citizens here, they show up as soon as flips start
rearranging a development.

Badness of an edge is measured by developing its two adjacent faces into
the plane (two copies, if they are the same face) and comparing the
fourth corner's weight against the quadratic extension of the weights on
the first three; the flip algorithm greedily removes bad edges and
terminates because each flip strictly raises the piecewise extension.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import FlipError, InadmissibleWeightsError, TriangleError
from .surface import PolyhedralMetric, UnionFind

# An edge is bad when its badness exceeds BAD_TOL * max(1, |q|_inf).
BAD_TOL = 1e-10

# Interior angles of the developed quadrilateral must clear pi by this
# much before a flip is executed.
CONVEXITY_TOL = 1e-10


@dataclass
class QuadLayout:
    """The two faces adjacent to an edge, developed into the plane.

    The shared edge i->j lies on the x axis, k (the far corner on the
    edge's own face) above it, l (the far corner across) below.
    """

    labels: tuple  # (i, j, k, l) vertex labels
    pi: np.ndarray
    pj: np.ndarray
    pk: np.ndarray
    pl: np.ndarray

    @property
    def diagonal(self):
        return float(np.linalg.norm(self.pk - self.pl))


class CornerMesh:
    """Mutable triangulation with per-corner vertex labels and lengths."""

    def __init__(self, vert, ell, adj_face, adj_side):
        self.vert = np.asarray(vert, dtype=np.int64)
        self.ell = np.asarray(ell, dtype=np.float64)
        self.adj_face = np.asarray(adj_face, dtype=np.int64)
        self.adj_side = np.asarray(adj_side, dtype=np.int64)

    # -- construction -------------------------------------------------

    @classmethod
    def from_metric(cls, metric: PolyhedralMetric) -> "CornerMesh":
        dev = metric.development
        nf = dev.n_faces
        adj_face = np.full((nf, 3), -1, dtype=np.int64)
        adj_side = np.full((nf, 3), -1, dtype=np.int64)
        for (t, s), (t2, s2) in dev.gluings:
            adj_face[t, s], adj_side[t, s] = t2, s2
            adj_face[t2, s2], adj_side[t2, s2] = t, s
        return cls(metric.corner_vertex.copy(), dev.sides.copy(), adj_face, adj_side)

    def copy(self) -> "CornerMesh":
        return CornerMesh(
            self.vert.copy(), self.ell.copy(), self.adj_face.copy(), self.adj_side.copy()
        )

    # -- basic queries ------------------------------------------------

    @property
    def n_faces(self):
        return self.vert.shape[0]

    @property
    def n_vertices(self):
        return int(self.vert.max()) + 1

    @property
    def n_edges(self):
        return (3 * self.n_faces) // 2

    def neighbor(self, f, s):
        return int(self.adj_face[f, s]), int(self.adj_side[f, s])

    def edges(self):
        """Canonical handles of the undirected edges as two int arrays
        (f, s): per edge, the side that precedes its neighbor (g, s2) in
        (face, side) order, listed in that order."""
        corner = 3 * np.arange(self.n_faces)[:, None] + np.arange(3)
        return np.nonzero(corner <= 3 * self.adj_face + self.adj_side)

    def edge_endpoints(self, f, s):
        return int(self.vert[f, (s + 1) % 3]), int(self.vert[f, (s + 2) % 3])

    # -- serialization (for solver state dumps) ---------------------------

    def to_json(self):
        return json.dumps(
            {
                "vert": self.vert.tolist(),
                "ell": self.ell.tolist(),
                "adj_face": self.adj_face.tolist(),
                "adj_side": self.adj_side.tolist(),
            }
        )

    # -- geometry -----------------------------------------------------

    def develop_quad(self, f, s) -> QuadLayout:
        """Lay out the two faces adjacent to side (f, s) in the plane.

        Works when both sides belong to the same face (the face is
        developed twice) and when some of the four corner labels agree.
        """
        f = int(f)
        s = int(s)
        g, s2 = self.neighbor(f, s)
        i = int(self.vert[f, (s + 1) % 3])
        j = int(self.vert[f, (s + 2) % 3])
        k = int(self.vert[f, s])
        l = int(self.vert[g, s2])

        lij = float(self.ell[f, s])
        lik = float(self.ell[f, (s + 2) % 3])
        ljk = float(self.ell[f, (s + 1) % 3])
        lil = float(self.ell[g, (s2 + 1) % 3])
        ljl = float(self.ell[g, (s2 + 2) % 3])

        def third_point(da, db, sign):
            x = (da * da + lij * lij - db * db) / (2.0 * lij)
            y2 = da * da - x * x
            if y2 <= 0.0:
                raise TriangleError(
                    f"cannot develop quad at edge ({f}, {s}): flat triangle"
                )
            return np.array([x, sign * math.sqrt(y2)])

        return QuadLayout(
            labels=(i, j, k, l),
            pi=np.zeros(2),
            pj=np.array([lij, 0.0]),
            pk=third_point(lik, ljk, +1.0),
            pl=third_point(lil, ljl, -1.0),
        )

    def flip(self, f, s):
        """Replace the diagonal of the quad around side (f, s).

        Preconditions: the two adjacent face slots belong to distinct
        faces and the developed quadrilateral is strictly convex (every
        interior angle below pi - CONVEXITY_TOL).  Returns the new
        diagonal's length.
        """
        f = int(f)
        s = int(s)
        g, s2 = self.neighbor(f, s)
        if g == f:
            raise FlipError(f"edge ({f}, {s}) has the same face on both sides")

        quad = self.develop_quad(f, s)
        if not quad_is_strictly_convex(quad):
            raise FlipError(f"quad around edge ({f}, {s}) is not strictly convex")

        new_len = quad.diagonal
        i, j, k, l = quad.labels
        l_jk = float(self.ell[f, (s + 1) % 3])
        l_ki = float(self.ell[f, (s + 2) % 3])
        l_il = float(self.ell[g, (s2 + 1) % 3])
        l_lj = float(self.ell[g, (s2 + 2) % 3])
        n_jk = self.neighbor(f, (s + 1) % 3)
        n_ki = self.neighbor(f, (s + 2) % 3)
        n_il = self.neighbor(g, (s2 + 1) % 3)
        n_lj = self.neighbor(g, (s2 + 2) % 3)

        # The quad's outer sides may be glued to each other (or to the
        # faces being rewritten); route those references to their new
        # homes.
        relocate = {
            (f, (s + 1) % 3): (g, 2),
            (f, (s + 2) % 3): (f, 1),
            (g, (s2 + 1) % 3): (f, 2),
            (g, (s2 + 2) % 3): (g, 1),
        }

        def place(face, side, target, length):
            self.ell[face, side] = length
            t = relocate.get(target, target)
            self.adj_face[face, side], self.adj_side[face, side] = t
            self.adj_face[t[0], t[1]] = face
            self.adj_side[t[0], t[1]] = side

        # New faces: f := (i, l, k), g := (j, k, l); side 0 of each is the
        # fresh diagonal l->k / k->l.  Wire the diagonal directly: the slot
        # name (g, 0) may coincide with an *old* outer-side name and must
        # not pass through the relocation table.
        self.vert[f] = (i, l, k)
        self.vert[g] = (j, k, l)
        self.ell[f, 0] = new_len
        self.ell[g, 0] = new_len
        self.adj_face[f, 0], self.adj_side[f, 0] = g, 0
        self.adj_face[g, 0], self.adj_side[g, 0] = f, 0
        place(f, 1, n_ki, l_ki)
        place(f, 2, n_il, l_il)
        place(g, 1, n_lj, l_lj)
        place(g, 2, n_jk, l_jk)
        return new_len


def quad_is_strictly_convex(quad: QuadLayout) -> bool:
    """Every interior angle of the developed quad clears pi by
    CONVEXITY_TOL."""
    ring = [quad.pi, quad.pl, quad.pj, quad.pk]
    for idx in range(4):
        e_in = ring[idx] - ring[idx - 1]
        e_out = ring[(idx + 1) % 4] - ring[idx]
        turn = math.atan2(
            e_in[0] * e_out[1] - e_in[1] * e_out[0], float(np.dot(e_in, e_out))
        )
        if turn <= CONVEXITY_TOL:
            return False
    return True


# -- power-style badness -----------------------------------------------


def badness(mesh, q, f, s):
    """Badness of the edges with handles (f[e], s[e]): q_l minus the
    extension through i, j, k, from ``kernels.edge_badness``.

    Raises TriangleError at the first edge whose quad has a flat
    triangle, where the kernel returns NaN.
    """
    g = mesh.adj_face[f, s]
    s2 = mesh.adj_side[f, s]
    vals = kernels.edge_badness(
        mesh.ell[f, s],
        mesh.ell[f, (s + 2) % 3],
        mesh.ell[f, (s + 1) % 3],
        mesh.ell[g, (s2 + 1) % 3],
        mesh.ell[g, (s2 + 2) % 3],
        q[mesh.vert[f, (s + 1) % 3]],
        q[mesh.vert[f, (s + 2) % 3]],
        q[mesh.vert[f, s]],
        q[mesh.vert[g, s2]],
    )
    flat = np.flatnonzero(np.isnan(vals))
    if flat.size:
        e = flat[0]
        raise TriangleError(
            f"cannot develop quad at edge ({f[e]}, {s[e]}): flat triangle"
        )
    return vals


def badness_scan(mesh, q):
    """Badness for every canonical edge, batched; returns ((f, s), values)
    with (f, s) the index arrays of ``mesh.edges()``."""
    f, s = mesh.edges()
    return (f, s), badness(mesh, np.asarray(q, dtype=float), f, s)


# -- the flip algorithm --------------------------------------------------


def weighted_delaunay(mesh, q, max_flips=None, on_flip=None):
    """Flip bad edges (FIFO) until none are left; returns the flip count.

    ``on_flip(mesh, f, s)`` is invoked just before each flip.  Raises
    InadmissibleWeightsError when a bad edge cannot be flipped and no
    other flip unblocks it, or when ``max_flips`` is exhausted — both
    certify that the weights are not reachable by this triangulation
    family.  Raises TriangleError, as ``badness`` does, on a flat quad.

    The badness of (f, s) reads only the rows of f and of its neighbour
    across s, and a flip writes only the rows of its two faces and points
    outer sides at them.  So while neither face has been flipped, an
    edge's verdict is the one the initial scan gave it.
    """
    q = np.asarray(q, dtype=float)
    if max_flips is None:
        max_flips = 100 * mesh.n_edges**2
    scale = max(1.0, float(np.abs(q).max()))
    tol = BAD_TOL * scale

    (f, s), vals = badness_scan(mesh, q)
    if np.all(vals <= tol):
        return 0

    edges = list(zip(f.tolist(), s.tolist()))
    scanned = dict(zip(edges, (vals > tol).tolist()))
    rewritten = set()
    queue = deque(edges)
    flips = 0
    stalled = 0
    while queue:
        f, s = queue.popleft()
        g, s2 = mesh.neighbor(f, s)
        if f in rewritten or g in rewritten:
            bad = badness(mesh, q, np.array([f]), np.array([s]))[0] > tol
        else:
            bad = scanned[f, s]
        if not bad:
            continue
        blocked = g == f or not quad_is_strictly_convex(mesh.develop_quad(f, s))
        if blocked:
            # Cannot flip now; some other flip may reshape this quad.
            queue.append((f, s))
            stalled += 1
            if stalled > len(queue) + 1:
                raise InadmissibleWeightsError(
                    f"bad edge ({f}, {s}) cannot be flipped and no flip unblocks it"
                )
            continue

        if on_flip is not None:
            # The flip is now guaranteed to execute; hooks see the mesh
            # in its pre-flip state.
            on_flip(mesh, f, s)
        mesh.flip(f, s)
        rewritten.update((f, g))
        flips += 1
        stalled = 0
        if flips > max_flips:
            raise InadmissibleWeightsError(f"flip budget {max_flips} exhausted")
        # The new diagonal is side 0 of both rewritten faces; its four
        # neighbors are the quad's outer sides.
        for cand in ((f, 1), (f, 2), (g, 1), (g, 2)):
            queue.append(cand)
    return flips


# -- tesselation extraction ----------------------------------------------


@dataclass(frozen=True)
class Region:
    faces: tuple  # sorted face indices
    cycles: tuple  # boundary cycles, each a tuple of directed slots (f, s)


def merge_regions(mesh, flat_slots):
    """Union faces across the given edge slots and walk region boundaries.

    ``flat_slots`` may contain either or both slots of an edge.  Returns
    a list of Region in deterministic order.  Boundary cycles keep the
    region on their left.
    """
    flat = np.zeros((mesh.n_faces, 3), dtype=bool)
    for f, s in flat_slots:
        flat[f, s] = True
        g, s2 = mesh.neighbor(f, s)
        flat[g, s2] = True

    uf = UnionFind(mesh.n_faces)
    for f in range(mesh.n_faces):
        for s in range(3):
            if flat[f, s]:
                uf.union(f, int(mesh.adj_face[f, s]))

    members = {}
    for f in range(mesh.n_faces):
        members.setdefault(uf.find(f), []).append(f)

    visited = np.zeros((mesh.n_faces, 3), dtype=bool)
    cycles_of = {root: [] for root in members}
    for f0 in range(mesh.n_faces):
        for s0 in range(3):
            if flat[f0, s0] or visited[f0, s0]:
                continue
            cycle = []
            f, s = f0, s0
            while not visited[f, s]:
                visited[f, s] = True
                cycle.append((f, s))
                # Rotate around the head vertex until the next
                # non-merged side going out of it.
                t = (s + 1) % 3
                while flat[f, t]:
                    g, u = mesh.neighbor(f, t)
                    f, t = g, (u + 1) % 3
                f, s = f, t
            cycles_of[uf.find(f0)].append(tuple(cycle))

    out = []
    for root in sorted(members):
        out.append(
            Region(faces=tuple(sorted(members[root])), cycles=tuple(cycles_of[root]))
        )
    return out
