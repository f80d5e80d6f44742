"""Geodesic triangulations of a cone surface, with diagonal flips.

The mesh is a corner table.  Face ``f`` has corners 0, 1, 2; side ``s``
is opposite corner ``s`` and is traversed from its tail corner to its
head corner (``kernels.side_ends``).  Slot ``3 f + s`` is side ``s`` of
face ``f``, and also corner ``s`` of it.  The slot is the one handle of
a side: ``edges``, ``flip``, ``badness_scan``, ``weighted_delaunay``'s
hook and ``merge_regions``' cycles all take or give slots.  The one
table ``twin`` maps each slot to the slot glued to it, with reversed
traversal, making the whole thing an oriented closed surface; a mesh
starts from its development's table (``surface.Development``).
Vertices may repeat around a face: loops and multiple edges are
ordinary citizens here, they show up as soon as flips start
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
side ends' labels (``side_ends``), the canonical edges and their quads
(``badness_scan``), the pyramid base terms (``polytope``), the band
scatter index of the solve's vertex order (``jacobian``) and the mesh's
own reverse Cuthill-McKee order (``solver`` and ``embed``).  ``flip``,
which each round of ``weighted_delaunay`` calls once, is the only code
that writes a mesh, and it drops the cache; ``copy`` shares it, as the
copy is the same triangulation until one of the two flips.  The cache holds no
reference to its mesh, so a dropped mesh is freed at once by reference
counting rather than by the cycle collector, and no views: a flip
writes ``vert``, ``ell`` and ``twin`` in place, and a view cached
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
from .surface import PolyhedralMetric

# An edge is bad when its badness exceeds BAD_TOL * max(1, |q|_inf).
BAD_TOL = 1e-10

# Interior angles of the developed quadrilateral must clear pi by this
# much before a flip is executed.
CONVEXITY_TOL = 1e-10


class CornerMesh:
    """Mutable triangulation with per-corner vertex labels and lengths."""

    def __init__(self, vert, ell, twin):
        self.vert = np.asarray(vert, dtype=np.int64)
        self.ell = np.asarray(ell, dtype=np.float64)
        self.twin = np.asarray(twin, dtype=np.int64)
        # Flips rewire faces but keep the set of vertex labels.
        self.n_vertices = int(self.vert.max()) + 1
        self._cache = {}

    # -- construction -------------------------------------------------

    @classmethod
    def from_metric(cls, metric: PolyhedralMetric) -> "CornerMesh":
        dev = metric.development
        # Copies: flip writes the mesh's arrays in place.
        return cls(metric.corner_vertex.copy(), dev.sides.copy(), dev.twin.copy())

    def copy(self) -> "CornerMesh":
        """A mesh with copies of the three arrays, sharing this one's cache
        until either of them flips."""
        out = CornerMesh(self.vert.copy(), self.ell.copy(), self.twin.copy())
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

    def edges(self):
        """Canonical slots of the undirected edges: per edge, the smaller
        of its two slots, listed in ascending order."""
        slot = np.arange(self.twin.size)
        return slot[slot <= self.twin]

    def side_ends(self):
        """Vertex labels of the tail and head of every slot, (2, 3F), kept
        in the cache."""
        return self.cached(_side_ends)

    # -- serialization (for solver state dumps) ---------------------------

    def to_json(self):
        return json.dumps(
            {
                "vert": self.vert.tolist(),
                "ell": self.ell.tolist(),
                "twin": self.twin.tolist(),
            }
        )

    # -- geometry -----------------------------------------------------

    def flip(self, e):
        """Replace the diagonals of the quads around slots ``e``: one
        slot, or an array of slots whose quads share no face.

        Preconditions: the two slots of each edge belong to distinct
        faces, and its developed quadrilateral is strictly convex (every
        interior angle below pi - CONVEXITY_TOL).  The quad around slot
        3 f + s, glued to a slot of face g, with corners i, j, k, l
        becomes the faces f := (i, l, k) and g := (j, k, l), with the new
        diagonal l -> k / k -> l as side 0 of each.  Returns the new
        diagonals' lengths, a float for one slot.
        """
        shape = np.shape(e)
        quads = _quads(self, np.ravel(e))
        e, o = quads.slot, self.twin[quads.slot]
        f, g = e // 3, o // 3
        same = np.flatnonzero(g == f)
        if same.size:
            raise FlipError(f"edge {divmod(int(e[same[0]]), 3)} has the same face on both sides")
        reflex = np.flatnonzero(~_strictly_convex(quads.frame))
        if reflex.size:
            raise FlipError(f"quad around edge {divmod(int(e[reflex[0]]), 3)} is not strictly convex")

        # The new diagonal joins the far corners k and l of the frame.
        frame = quads.frame
        d = np.stack([0.5 * frame.two_xk - frame.xl, 0.5 * frame.two_yk - frame.yl], axis=1)
        new_len = np.sqrt(kernels.rows_dot(d, d))
        # Every side slot of the two faces moves, and its twin follows it.
        # Outer sides may be glued to each other, within a quad or across
        # two, so all twins are relabelled in one pass.
        old = np.concatenate([e, *kernels.side_ends(e), o, *kernels.side_ends(o)])
        new = np.concatenate([3 * f, 3 * g + 2, 3 * f + 1, 3 * g, 3 * f + 2, 3 * g + 1])
        slot = np.arange(3 * self.n_faces)
        slot[old] = new
        ell = np.empty(slot.size)
        ell[slot] = self.ell.ravel()
        # The arrays are about to change: drop the cache (copies made
        # before keep theirs).
        self._cache = {}
        self.twin[slot] = slot[self.twin]
        self.ell[...] = ell.reshape(-1, 3)
        self.ell[f, 0] = self.ell[g, 0] = new_len
        i, j, k, l = quads.labels
        self.vert[f] = np.stack([i, l, k], axis=1)
        self.vert[g] = np.stack([j, k, l], axis=1)
        return new_len.reshape(shape)[()]


def _side_ends(mesh):
    return mesh.vert.ravel()[kernels.side_ends(np.arange(mesh.vert.size))]


def _freeze(value):
    """Make every array in ``value``, a tuple tree of them, read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        for item in value:
            _freeze(item)


# -- power-style badness -----------------------------------------------


class EdgeQuads(NamedTuple):
    """The quads around the edges of the slots ``slot``: the labels i, j,
    k, l of their corners, stacked (4, E), and their ``QuadFrame``.  Slot
    e runs i -> j and faces corner k; its twin o runs j -> i and faces
    corner l."""

    slot: np.ndarray
    labels: np.ndarray
    frame: kernels.QuadFrame


def _quads(mesh, e):
    o = mesh.twin[e]
    (t, h), (to, ho) = kernels.side_ends(e), kernels.side_ends(o)
    labels = mesh.vert.ravel()[np.stack([t, h, e, o])]
    # l_ij, l_ik, l_jk, l_il, l_jl
    lengths = mesh.ell.ravel()[np.stack([e, h, t, to, ho])]
    return EdgeQuads(e, labels, kernels.quad_frame(*lengths))


def _edge_quads(mesh):
    return _quads(mesh, mesh.cached(CornerMesh.edges))


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
        raise TriangleError(
            f"cannot develop quad at edge {divmod(int(quads.slot[flat[0]]), 3)}: flat triangle"
        )
    return vals


def badness_scan(mesh, q):
    """Badness for every canonical edge, batched; returns (slots, values)
    with slots those of ``mesh.edges()``.  The edges and their quads come
    from the mesh's cache; only the weights are new."""
    quads = mesh.cached(_edge_quads)
    return quads.slot, _badness(quads, np.asarray(q, dtype=float))


# -- the flip algorithm --------------------------------------------------


def weighted_delaunay(mesh, q, max_flips=None, on_flip=None):
    """Flip bad edges in rounds until none are left; returns the flip
    count.

    A round rechecks its suspect edges in one batch.  Then it flips, in
    one batch, each bad edge whose quad is strictly convex and shares no
    face with a flip picked before it in slot order.  The first round's
    suspects are all edges, with the quads of ``badness_scan``; the next
    round's are the flipped quads' outer sides and the bad edges the
    round left.  The badness of slot e reads only the rows of its face
    and of its twin's, and a flip writes only the rows of its two faces
    and points outer sides at them, so no other verdict changes.

    ``on_flip(mesh, e)`` is called once per round, with the slots of the
    round's flips, before any of them fires.  Since those
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
        e = quads.slot[bad]
        f, g = e // 3, mesh.twin[e] // 3
        movable = (g != f) & _strictly_convex(kernels.QuadFrame(*(x[bad] for x in quads.frame)))
        pick = np.zeros(bad.size, dtype=bool)
        taken = set()
        faces = list(zip(f.tolist(), g.tolist()))
        for i in np.flatnonzero(movable).tolist():
            if taken.isdisjoint(faces[i]):
                taken.update(faces[i])
                pick[i] = True
        n = int(pick.sum())
        if n == 0:
            raise InadmissibleWeightsError(
                f"bad edge {divmod(int(e[0]), 3)} cannot be flipped and no flip unblocks it"
            )
        if flips + n > max_flips:
            raise InadmissibleWeightsError(f"flip budget {max_flips} exhausted")
        if on_flip is not None:
            on_flip(mesh, e[pick])
        mesh.flip(e[pick])
        flips += n
        # Each new diagonal is side 0 of its two faces; sides 1 and 2 are
        # the quad's outer sides.
        fg = np.concatenate([f[pick], g[pick]])
        slots = np.concatenate([3 * fg + 1, 3 * fg + 2, e[~pick]])
        quads = _quads(mesh, np.unique(np.minimum(slots, mesh.twin[slots])))
        vals = _badness(quads, q)


# -- tesselation extraction ----------------------------------------------


@dataclass(frozen=True)
class Region:
    faces: tuple  # sorted face indices
    cycles: tuple  # boundary cycles, each a tuple of slots


def merge_regions(mesh, flat):
    """Join faces across the edge slots set in the (F, 3) boolean mask
    ``flat`` and walk the regions' boundaries.

    The mask may set either or both slots of an edge.  Returns a list of
    Region, one per component of ``kernels.components``, in order of
    their smallest face.  Boundary cycles keep the region on their left.
    """
    flat = np.asarray(flat, dtype=bool).ravel()
    flat = flat | flat[mesh.twin]
    slots = np.flatnonzero(flat)
    label = kernels.components(mesh.n_faces, slots // 3, mesh.twin[slots] // 3)
    order = np.argsort(label, kind="stable").tolist()
    ends = np.cumsum(np.bincount(label)).tolist()
    members = [order[lo:hi] for lo, hi in zip([0] + ends, ends)]

    flat, twin = flat.tolist(), mesh.twin.tolist()
    # The side after each slot around its face (``kernels.side_ends``).
    after = kernels.side_ends(np.arange(len(twin)))[0].tolist()
    visited = [False] * len(twin)
    cycles_of = [[] for _ in members]
    for e0 in range(len(twin)):
        if flat[e0] or visited[e0]:
            continue
        cycle = []
        e = e0
        while not visited[e]:
            visited[e] = True
            cycle.append(e)
            # Rotate around the head vertex until the next non-merged
            # side going out of it.
            e = after[e]
            while flat[e]:
                e = after[twin[e]]
        cycles_of[label[e0 // 3]].append(tuple(cycle))

    return [
        Region(faces=tuple(faces), cycles=tuple(cycles))
        for faces, cycles in zip(members, cycles_of)
    ]
