"""Polar-dual convex bodies over a spherical fan.

A dual polyhedron is (mesh, phi, h): the combinatorics of a
triangulation, the angle phi each edge subtends at the center, and a
support-like value h per vertex direction.  Everything else — foot
points of perpendiculars, dual edge lengths, face areas, volume — falls
out of a two-level orthoscheme chain:

    h_ij  = (h_j  - h_i  cos phi_ij) / sin phi_ij      per directed edge
    h_ijk = (h_ik - h_ij cos omega_i) / sin omega_i    per face corner

with omega the fan triangle's spherical angles.  Negative h_ij / h_ijk
are meaningful (obtuse feet) and flow through all formulas unchanged.

The generalized polytope with radii r dualizes to h = 1/r with the same
fan; its curvature Jacobian equals the Hessian of the dual's volume,
which the tests exercise as a cross-check between two independently
coded routes.  The rank profile at the end splits such a Hessian into
its rank and its kernel (the apex translations at closure).

This module is a test oracle: nothing in the package imports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from polyforge.errors import StepReductionError, TriangleError
from polyforge.kernels import _NEXT, _NEXT2, _angle_opp

SIN_FLOOR = 1e-12

FOOT_MATCH_TOL = 1e-10
LSTAR_NEG_TOL = 1e-10


@dataclass
class DualPolyhedron:
    mesh: object  # CornerMesh; only the combinatorics are used
    phi: np.ndarray  # (F, 3) arc subtended by side s of face f
    h: np.ndarray  # (n,)

    @property
    def n_vertices(self):
        return self.h.shape[0]


def dualize(P) -> DualPolyhedron:
    """Polar dual of a generalized polytope: same fan, h = 1/r."""
    return DualPolyhedron(mesh=P.mesh, phi=lateral_angles(P)[2], h=1.0 / P.r)


def lateral_angles(P):
    """The angles of the lateral triangle (apex, tail, head) over each side
    slot of P, from its sides r_tail, r_head and ell: the slant angles
    rho_t at the tail and rho_h at the head, and the apex angle phi the
    side subtends, each (F, 3)."""
    rad = P.r[P.mesh.vert]
    r_t, r_h, ell = rad[:, _NEXT], rad[:, _NEXT2], P.mesh.ell
    return _angle_opp(r_h, r_t, ell), _angle_opp(r_t, r_h, ell), _angle_opp(ell, r_t, r_h)


def _sph_angle_opp(a, b, c):
    """Spherical angle opposite side a in triangles (a, b, c), batched."""
    sa = 0.5 * (b + c - a)
    sb = 0.5 * (c + a - b)
    sc = 0.5 * (a + b - c)
    s = 0.5 * (a + b + c)
    if np.any(sa <= 0.0) or np.any(sb <= 0.0) or np.any(sc <= 0.0):
        raise TriangleError("fan triangle inequality violated")
    if np.any(s >= math.pi):
        raise TriangleError("fan triangle perimeter out of range")
    return 2.0 * np.arctan2(
        np.sqrt(np.sin(sb) * np.sin(sc)), np.sqrt(np.sin(s) * np.sin(sa))
    )


def fan_angles(phi):
    """Spherical angle of each fan triangle at each of its corners."""
    phi = np.asarray(phi, dtype=float)
    out = np.empty_like(phi)
    for c in range(3):
        out[:, c] = _sph_angle_opp(
            phi[:, c], phi[:, (c + 1) % 3], phi[:, (c + 2) % 3]
        )
    return out


def _edge_chain(mesh, h, sin_phi, cos_phi):
    """First chain level: h value of every directed edge (fwd = slot
    orientation tail->head, rev = the opposite)."""
    tail = mesh.vert[:, [1, 2, 0]]
    head = mesh.vert[:, [2, 0, 1]]
    h_fwd = (h[head] - h[tail] * cos_phi) / sin_phi
    h_rev = (h[tail] - h[head] * cos_phi) / sin_phi
    return h_fwd, h_rev


@dataclass
class DualDecomposition:
    omega: np.ndarray  # (F, 3) fan angle at each corner
    h_fwd: np.ndarray  # (F, 3) directed-edge foot values, slot direction
    h_rev: np.ndarray  # (F, 3) ... opposite direction
    h_perp: np.ndarray  # (F, 3) corner foot value at the tail corner
    h_perp_mirror: np.ndarray  # (F, 3) same vertex reached from the head
    lstar: np.ndarray  # (F, 3) dual edge length (symmetric per edge)
    areas: np.ndarray  # (n,) dual face areas F_i
    volume: float


def decompose(dual: DualPolyhedron, check=True) -> DualDecomposition:
    """Run the orthoscheme chain; h_ij and h_ijk may come out negative.

    With ``check`` on, verifies that the two routes to each orthoscheme
    vertex agree (h_ijk = h_jik) and that dual edge lengths are
    nonnegative up to tolerance.
    """
    mesh, phi, h = dual.mesh, np.asarray(dual.phi, float), np.asarray(dual.h, float)
    if np.any(phi <= 0.0) or np.any(phi >= math.pi):
        raise TriangleError("edge arcs must lie strictly inside (0, pi)")
    sin_phi, cos_phi = np.sin(phi), np.cos(phi)
    if sin_phi.min() < SIN_FLOOR:
        raise StepReductionError("edge arc too close to 0 or pi to decompose")

    omega = fan_angles(phi)
    sin_om, cos_om = np.sin(omega), np.cos(omega)
    if sin_om.min() < SIN_FLOOR:
        raise StepReductionError("fan angle too close to 0 or pi to decompose")

    h_fwd, h_rev = _edge_chain(mesh, h, sin_phi, cos_phi)

    roll1 = [1, 2, 0]  # slot s -> slot s+1
    roll2 = [2, 0, 1]  # slot s -> slot s+2
    h_perp = (h_rev[:, roll2] - h_fwd * cos_om[:, roll1]) / sin_om[:, roll1]
    h_perp_mirror = (h_fwd[:, roll1] - h_rev * cos_om[:, roll2]) / sin_om[:, roll2]

    lstar = h_perp + h_perp.ravel()[mesh.twin].reshape(-1, 3)

    scale = max(1.0, float(np.abs(h_perp).max()))
    if check:
        mismatch = float(np.abs(h_perp - h_perp_mirror).max())
        if mismatch > FOOT_MATCH_TOL * scale:
            raise TriangleError(
                f"orthoscheme routes disagree by {mismatch!r}; fan inconsistent"
            )
        if float(lstar.min()) < -LSTAR_NEG_TOL * scale:
            raise TriangleError(
                f"negative dual edge length {float(lstar.min())!r}"
            )

    tail = mesh.vert[:, [1, 2, 0]]
    areas = np.zeros(dual.n_vertices)
    np.add.at(areas, tail.ravel(), 0.5 * (h_fwd * lstar).ravel())
    volume = float(np.dot(h, areas)) / 3.0

    return DualDecomposition(
        omega=omega,
        h_fwd=h_fwd,
        h_rev=h_rev,
        h_perp=h_perp,
        h_perp_mirror=h_perp_mirror,
        lstar=lstar,
        areas=areas,
        volume=volume,
    )


def _chain_for(dual, omega, x):
    """Directed-edge and corner foot values for an arbitrary vector x in
    place of h (everything is linear in x)."""
    mesh = dual.mesh
    phi = dual.phi
    sin_phi, cos_phi = np.sin(phi), np.cos(phi)
    tail = mesh.vert[:, [1, 2, 0]]
    head = mesh.vert[:, [2, 0, 1]]
    x = np.asarray(x, dtype=float)
    x_fwd = (x[head] - x[tail] * cos_phi) / sin_phi
    x_rev = (x[tail] - x[head] * cos_phi) / sin_phi
    sin_om, cos_om = np.sin(omega), np.cos(omega)
    roll1 = [1, 2, 0]
    roll2 = [2, 0, 1]
    x_perp = (x_rev[:, roll2] - x_fwd * cos_om[:, roll1]) / sin_om[:, roll1]
    return x_fwd, x_rev, x_perp


def mixed_area(dual: DualPolyhedron, i, x, y, omega=None) -> float:
    """Bilinear extension F_i(x, y) of the dual face area at vertex i."""
    if omega is None:
        omega = fan_angles(dual.phi)
    x_fwd, _, _ = _chain_for(dual, omega, x)
    _, _, y_perp = _chain_for(dual, omega, y)
    mesh = dual.mesh
    y_lstar = y_perp + y_perp.ravel()[mesh.twin].reshape(-1, 3)
    tail = mesh.vert[:, [1, 2, 0]]
    mask = tail == i
    return 0.5 * float(np.sum(x_fwd[mask] * y_lstar[mask]))


def mixed_volume(dual: DualPolyhedron, x, y, z) -> float:
    """Trilinear extension of the volume; vol(h) = mixed_volume(h, h, h)."""
    omega = fan_angles(dual.phi)
    y_fwd, _, _ = _chain_for(dual, omega, y)
    _, _, z_perp = _chain_for(dual, omega, z)
    mesh = dual.mesh
    z_lstar = z_perp + z_perp.ravel()[mesh.twin].reshape(-1, 3)
    tail = mesh.vert[:, [1, 2, 0]]
    areas = np.zeros(dual.n_vertices)
    np.add.at(areas, tail.ravel(), 0.5 * (y_fwd * z_lstar).ravel())
    return float(np.dot(np.asarray(x, float), areas)) / 3.0


def volume_hessian(dual: DualPolyhedron, decomp: DualDecomposition | None = None):
    """Hessian of vol(P*) in h, assembled edge by edge.

    One contribution per directed edge e = i -> j:
        H[i, j] += lstar_e / sin phi_e
        H[i, i] -= lstar_e cos phi_e / sin phi_e
    """
    if decomp is None:
        decomp = decompose(dual)
    mesh = dual.mesh
    phi = dual.phi
    sin_phi, cos_phi = np.sin(phi), np.cos(phi)
    if sin_phi.min() < SIN_FLOOR:
        raise StepReductionError("edge arc too close to 0 or pi")
    tail = mesh.vert[:, [1, 2, 0]].ravel()
    head = mesh.vert[:, [2, 0, 1]].ravel()
    off = (decomp.lstar / sin_phi).ravel()
    diag = (-decomp.lstar * cos_phi / sin_phi).ravel()
    rows = np.concatenate([tail, tail])
    cols = np.concatenate([head, tail])
    vals = np.concatenate([off, diag])
    out = np.zeros((dual.n_vertices, dual.n_vertices))
    np.add.at(out, (rows, cols), vals)
    return out


def face_positivity(P, deficits=None):
    """Dual face areas and the per-vertex spherical-excess residuals.

    The residual at vertex i is sum over its corners of (omega - gamma)
    minus (delta_i - kappa_i), where gamma is re-derived from the slant
    angles and the radial dihedral via the spherical law of cosines; it
    vanishes for any exactly-solved pyramid family.
    """
    if deficits is None:
        raise ValueError("deficits required: the metric's, or mesh_deficits(P.mesh)")
    mesh, pyr = P.mesh, P.pyramids
    dec = decompose(dualize(P))
    kappa = P.kappa

    rho_t, rho_h, _ = lateral_angles(P)
    rho_to_next = rho_t[:, [2, 0, 1]]  # at corner c toward corner c+1
    rho_to_prev = rho_h[:, [1, 2, 0]]  # at corner c toward corner c+2
    cos_gamma = np.cos(rho_to_next) * np.cos(rho_to_prev) + np.sin(
        rho_to_next
    ) * np.sin(rho_to_prev) * np.cos(pyr.omega)
    gamma_sph = np.arccos(np.clip(cos_gamma, -1.0, 1.0))

    residual = np.zeros(P.n_vertices)
    np.add.at(residual, mesh.vert.ravel(), (pyr.omega - gamma_sph).ravel())
    residual -= np.asarray(deficits, float) - kappa
    return dec.areas > 0.0, residual


# -- vertex links ---------------------------------------------------------


@dataclass
class LinkRing:
    """Cyclic structure around one vertex.

    ``corners[t]`` is the (face, corner) at the vertex; ``sides[t]`` is
    the slot whose *reversed* orientation is the ring side leaving the
    vertex right after ``corners[t]``.
    """

    vertex: int
    corners: tuple
    sides: tuple

    @property
    def degree(self):
        return len(self.corners)


def link_ring(mesh, i) -> LinkRing:
    start = None
    for f in range(mesh.n_faces):
        for c in range(3):
            if mesh.vert[f, c] == i:
                start = (f, c)
                break
        if start:
            break
    if start is None:
        raise ValueError(f"vertex {i} not present")
    corners, sides = [], []
    f, c = start
    while True:
        corners.append((f, c))
        sides.append((f, (c + 1) % 3))
        g, u = divmod(int(mesh.twin[3 * f + (c + 1) % 3]), 3)
        f, c = g, (u + 1) % 3
        if (f, c) == start:
            break
    return LinkRing(vertex=int(i), corners=tuple(corners), sides=tuple(sides))


def link_form(wedges):
    """Quadratic form 2*Fbar of a polygon link with the given wedge
    angles: Fbar(x) = 0.5 x^T L x over one coordinate per polygon side.

    Wedge t sits between side t-1 and side t.
    """
    w = np.asarray(wedges, dtype=float)
    m = w.shape[0]
    if m < 2:
        raise ValueError("a link needs at least two sides")
    L = np.zeros((m, m))
    for t in range(m):
        a, b = (t - 1) % m, t
        cot, csc = math.cos(w[t]) / math.sin(w[t]), 1.0 / math.sin(w[t])
        L[a, a] -= cot
        L[b, b] -= cot
        L[a, b] += csc
        L[b, a] += csc
    return L


def link_projection(dual: DualPolyhedron, ring: LinkRing):
    """Matrix of the linear map from h to the ring-side coordinates
    x_t = h_{i -> head(t)}."""
    mesh, phi, i = dual.mesh, dual.phi, ring.vertex
    m = ring.degree
    M = np.zeros((m, dual.n_vertices))
    for t, (f, u) in enumerate(ring.sides):
        head = int(mesh.vert[f, (u + 1) % 3])  # reversed slot: head is the tail corner
        sp, cp = math.sin(phi[f, u]), math.cos(phi[f, u])
        M[t, head] += 1.0 / sp
        M[t, i] += -cp / sp
    return M


@dataclass
class RankProfile:
    rank: int
    corank: int
    kernel: np.ndarray  # (n, corank) orthonormal
    sigma: np.ndarray  # singular values, descending


def rank_profile(J, tol=1e-6) -> RankProfile:
    """Rank / kernel split of a (near-)symmetric matrix.

    Singular values below ``tol`` times the largest count as zero.
    """
    J = np.asarray(J, dtype=float)
    n = J.shape[0]
    if n < 3:
        raise ValueError("rank profile needs at least 3 vertices")
    sym = 0.5 * (J + J.T)
    u, sigma, vt = np.linalg.svd(sym)
    cut = tol * sigma[0]
    corank = int(np.sum(sigma < cut))
    kernel = vt[n - corank :].T if corank else np.zeros((n, 0))
    return RankProfile(rank=n - corank, corank=corank, kernel=kernel, sigma=sigma)
