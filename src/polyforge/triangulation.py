"""Geodesic triangulations of a cone surface, with diagonal flips.

The mesh is a corner table.  Face ``f`` has corners 0, 1, 2; side ``s``
is opposite corner ``s`` and is traversed from corner ``(s+1)%3`` (tail)
to corner ``(s+2)%3`` (head).  ``adj`` maps each side to the side it is
glued to, with reversed traversal, making the whole thing an oriented
closed surface.  Vertices may repeat around a face: loops and multiple
edges are ordinary citizens here, they show up as soon as flips start
rearranging a development.

Badness of an edge is measured by developing its two adjacent faces into
the plane (two copies, if they are the same face), as a
``kernels.QuadFrame``, and comparing the fourth corner's weight against
the quadratic extension of the weights on the first three.  The same
frame decides whether the quad is strictly convex and gives the length
of the diagonal a flip puts in.  The flip algorithm removes bad edges in
rounds: each round rechecks its suspect edges in one batch and flips a
set of bad edges that share no face.  It terminates because each flip
strictly raises the piecewise extension.

The cache.  Along a deformation only the radii move: a triangulation and
its lengths change only when a flip fires, and in one pass of each
benchmark workload (seed 1) 97 to 99 % of the lookups below find their
arrays already built.  So ``CornerMesh.cached`` keeps the arrays that
depend on the triangulation alone, each built on first use: the
canonical edges and their quads (``badness_scan``), the pyramid base
terms (``polytope``), the twin slots (``polytope``, ``jacobian`` and
``embed``), the band scatter index of the solve's vertex order
(``jacobian``) and the mesh's own reverse Cuthill-McKee order
(``solver`` and ``embed``).  ``flip``, which each round of
``weighted_delaunay`` calls once, is the only code that writes a mesh,
and it drops the cache; ``copy`` shares it, as the copy is the
same triangulation until one of the two flips.  The cache holds no
reference to its mesh, so a dropped mesh is freed at once by reference
counting rather than by the cycle collector, and no views: a flip
writes ``vert``, ``ell`` and the adjacency in place, and a view cached
through a shared copy would go stale in the mesh that a rejected step
keeps.  Its arrays own their memory and are read-only.  Only the flip
loop's first round reads the cache.  Its later rounds and the solver's
flip hook read the mesh directly: between rounds the cache is empty, and
filling it there would build it once per round.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import FlipError, InadmissibleWeightsError, TriangleError
from .kernels import _NEXT, _NEXT2
from .surface import PolyhedralMetric, UnionFind

# An edge is bad when its badness exceeds BAD_TOL * max(1, |q|_inf).
BAD_TOL = 1e-10

# Interior angles of the developed quadrilateral must clear pi by this
# much before a flip is executed.
CONVEXITY_TOL = 1e-10


class CornerMesh:
    """Mutable triangulation with per-corner vertex labels and lengths."""

    def __init__(self, vert, ell, adj_face, adj_side):
        self.vert = np.asarray(vert, dtype=np.int64)
        self.ell = np.asarray(ell, dtype=np.float64)
        self.adj_face = np.asarray(adj_face, dtype=np.int64)
        self.adj_side = np.asarray(adj_side, dtype=np.int64)
        # Flips rewire faces but keep the set of vertex labels.
        self.n_vertices = int(self.vert.max()) + 1
        self._cache = {}

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
        """A mesh with copies of the four arrays, sharing this one's cache
        until either of them flips."""
        out = CornerMesh(
            self.vert.copy(), self.ell.copy(), self.adj_face.copy(), self.adj_side.copy()
        )
        out._cache = self._cache
        return out

    def cached(self, build, *key):
        """``build(self, *key)``, made once per triangulation.

        The value is kept until ``flip`` and shared with the copies made
        before it.  Its arrays must own their memory, since ``flip``
        writes the mesh's arrays in place; they are made read-only here.
        """
        slot = (build, *key)
        value = self._cache.get(slot)
        if value is None:
            value = self._cache[slot] = build(self, *key)
            _freeze(value)
        return value

    # -- basic queries ------------------------------------------------

    @property
    def n_faces(self):
        return self.vert.shape[0]

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
        return np.divmod(np.flatnonzero(corner <= 3 * self.adj_face + self.adj_side), 3)

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

    def flip(self, f, s):
        """Replace the diagonals of the quads around sides (f, s): one
        side, or index arrays of sides whose quads share no face.

        Preconditions: the two adjacent face slots of each side belong to
        distinct faces, and its developed quadrilateral is strictly convex
        (every interior angle below pi - CONVEXITY_TOL).  Quad (f, s) with
        corners i, j, k, l becomes the faces f := (i, l, k) and g := (j,
        k, l), with the new diagonal l -> k / k -> l as side 0 of each.
        Returns the new diagonals' lengths, a float for one side.
        """
        shape = np.shape(f)
        quads = _quads(self, np.ravel(f), np.ravel(s))
        g, s2 = self.adj_face[quads.f, quads.s], self.adj_side[quads.f, quads.s]
        same = np.flatnonzero(g == quads.f)
        if same.size:
            e = same[0]
            raise FlipError(f"edge ({quads.f[e]}, {quads.s[e]}) has the same face on both sides")
        reflex = np.flatnonzero(~_strictly_convex(quads.frame))
        if reflex.size:
            e = reflex[0]
            raise FlipError(f"quad around edge ({quads.f[e]}, {quads.s[e]}) is not strictly convex")

        # The new diagonal joins the far corners k and l of the frame.  Its
        # norm is taken edge by edge: a batched one differs in the last bit.
        frame = quads.frame
        dx, dy = 0.5 * frame.two_xk - frame.xl, 0.5 * frame.two_yk - frame.yl
        new_len = np.array([np.linalg.norm(v) for v in np.stack([dx, dy], axis=1)])
        # Every side slot of the two faces moves, and its twin follows it.
        # Outer sides may be glued to each other, within a quad or across
        # two, so all twins are relabelled in one pass.
        f, s = quads.f, quads.s
        old = np.concatenate(
            [3 * f + s, 3 * f + _NEXT[s], 3 * f + _NEXT2[s]]
            + [3 * g + s2, 3 * g + _NEXT[s2], 3 * g + _NEXT2[s2]]
        )
        new = np.concatenate([3 * f, 3 * g + 2, 3 * f + 1, 3 * g, 3 * f + 2, 3 * g + 1])
        slot = np.arange(3 * self.n_faces)
        slot[old] = new
        twin = twin_slots(self)
        twin[slot] = slot[twin]
        ell = np.empty(slot.size)
        ell[slot] = self.ell.ravel()
        # The arrays are about to change: drop the cache (copies made
        # before keep theirs).
        self._cache = {}
        self.adj_face[...], self.adj_side[...] = np.divmod(twin.reshape(-1, 3), 3)
        self.ell[...] = ell.reshape(-1, 3)
        self.ell[f, 0] = self.ell[g, 0] = new_len
        i, j, k, l = quads.labels
        self.vert[f] = np.stack([i, l, k], axis=1)
        self.vert[g] = np.stack([j, k, l], axis=1)
        return new_len.reshape(shape)[()]


def _freeze(value):
    """Make every array in ``value``, a tuple tree of them, read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        for item in value:
            _freeze(item)


def twin_slots(mesh):
    """Flat index 3 g + s2 of the slot glued to each side slot, in (face,
    side) order: ``x.ravel()[twin_slots(mesh)]`` is ``x[mesh.adj_face,
    mesh.adj_side].ravel()``."""
    return 3 * mesh.adj_face.ravel() + mesh.adj_side.ravel()


# -- power-style badness -----------------------------------------------


class EdgeQuads(NamedTuple):
    """The quads around the edges with handles (f[e], s[e]): the labels
    i, j, k, l of their corners, stacked (4, E), and their ``QuadFrame``."""

    f: np.ndarray
    s: np.ndarray
    labels: np.ndarray
    frame: kernels.QuadFrame


def _quads(mesh, f, s):
    g = mesh.adj_face[f, s]
    s2 = mesh.adj_side[f, s]
    t, h = _NEXT[s], _NEXT2[s]
    labels = mesh.vert[[f, f, f, g], [t, h, s, s2]]
    # l_ij, l_ik, l_jk, l_il, l_jl
    lengths = mesh.ell[[f, f, f, g, g], [s, h, t, _NEXT[s2], _NEXT2[s2]]]
    return EdgeQuads(f, s, labels, kernels.quad_frame(*lengths))


def _edge_quads(mesh):
    return _quads(mesh, *mesh.cached(CornerMesh.edges))


def _strictly_convex(frame):
    """Whether each quad i, l, j, k of a ``kernels.QuadFrame`` turns left
    by more than CONVEXITY_TOL at every corner, so that every interior
    angle clears pi by that much; False where a triangle is flat."""
    x_ij, xk, yk = 0.5 * frame.two_ij, 0.5 * frame.two_xk, 0.5 * frame.two_yk
    # The sides k -> i -> l -> j -> k -> i; each corner turns from the
    # side before it to the side after it.
    x = np.stack([-xk, frame.xl, x_ij - frame.xl, xk - x_ij, -xk])
    y = np.stack([-yk, frame.yl, -frame.yl, yk, -yk])
    x_in, y_in, x_out, y_out = x[:-1], y[:-1], x[1:], y[1:]
    turn = np.arctan2(x_in * y_out - y_in * x_out, x_in * x_out + y_in * y_out)
    return ~frame.flat & np.all(turn > CONVEXITY_TOL, axis=0)


def _badness(quads, q):
    """Badness of the quads' edges: q_l minus the extension through i, j,
    k, from ``kernels.edge_badness``.  Raises TriangleError at the first
    edge whose quad has a flat triangle, where the kernel returns NaN."""
    vals = kernels.edge_badness(quads.frame, *q[quads.labels])
    flat = np.flatnonzero(np.isnan(vals))
    if flat.size:
        e = flat[0]
        raise TriangleError(
            f"cannot develop quad at edge ({quads.f[e]}, {quads.s[e]}): flat triangle"
        )
    return vals


def badness_scan(mesh, q):
    """Badness for every canonical edge, batched; returns ((f, s), values)
    with (f, s) the index arrays of ``mesh.edges()``.  The edges and their
    quads come from the mesh's cache; only the weights are new."""
    quads = mesh.cached(_edge_quads)
    return (quads.f, quads.s), _badness(quads, np.asarray(q, dtype=float))


# -- the flip algorithm --------------------------------------------------


def weighted_delaunay(mesh, q, max_flips=None, on_flip=None):
    """Flip bad edges in rounds until none are left; returns the flip
    count.

    A round rechecks its suspect edges in one batch.  Then it flips, in
    one batch, each bad edge whose quad is strictly convex and shares no
    face with a flip picked before it in handle order.  The first round's
    suspects are all edges, with the quads of ``badness_scan``; the next
    round's are the flipped quads' outer sides and the bad edges the
    round left.  The badness of (f, s) reads only the rows of f and of
    its neighbour across s, and a flip writes only the rows of its two
    faces and points outer sides at them, so no other verdict changes.

    ``on_flip(mesh, f, s)`` is called once per round, with the handle
    arrays of the round's flips, before any of them fires.  Since those
    flips share no face, the mesh it sees holds each of their quads as
    it is just before that edge's flip.

    Raises InadmissibleWeightsError when a round has bad edges but none
    can flip, or when its flips would take the count past ``max_flips``:
    both certify that the weights are not reachable by this triangulation
    family.  Raises TriangleError, as ``badness_scan`` does, on a flat
    quad.
    """
    q = np.asarray(q, dtype=float)
    if max_flips is None:
        max_flips = 100 * mesh.n_edges**2
    tol = BAD_TOL * max(1.0, float(np.abs(q).max()))

    _, vals = badness_scan(mesh, q)
    quads = mesh.cached(_edge_quads)
    flips = 0
    while True:
        bad = np.flatnonzero(vals > tol)
        if not bad.size:
            return flips
        f, s = quads.f[bad], quads.s[bad]
        g = mesh.adj_face[f, s]
        movable = (g != f) & _strictly_convex(kernels.QuadFrame(*(x[bad] for x in quads.frame)))
        pick = np.zeros(bad.size, dtype=bool)
        taken = set()
        faces = list(zip(f.tolist(), g.tolist()))
        for e in np.flatnonzero(movable).tolist():
            if taken.isdisjoint(faces[e]):
                taken.update(faces[e])
                pick[e] = True
        n = int(pick.sum())
        if n == 0:
            raise InadmissibleWeightsError(
                f"bad edge ({f[0]}, {s[0]}) cannot be flipped and no flip unblocks it"
            )
        if flips + n > max_flips:
            raise InadmissibleWeightsError(f"flip budget {max_flips} exhausted")
        if on_flip is not None:
            on_flip(mesh, f[pick], s[pick])
        mesh.flip(f[pick], s[pick])
        flips += n
        # Each new diagonal is side 0 of its two faces; sides 1 and 2 are
        # the quad's outer sides.
        fg = np.concatenate([f[pick], g[pick]])
        slots = np.concatenate([3 * fg + 1, 3 * fg + 2, 3 * f[~pick] + s[~pick]])
        twins = 3 * mesh.adj_face.ravel()[slots] + mesh.adj_side.ravel()[slots]
        quads = _quads(mesh, *np.divmod(np.unique(np.minimum(slots, twins)), 3))
        vals = _badness(quads, q)


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
