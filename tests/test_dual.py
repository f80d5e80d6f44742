import itertools
import math

import numpy as np
import pytest

from dual import (
    DualPolyhedron,
    decompose,
    dualize,
    face_positivity,
    fan_angles,
    link_form,
    link_projection,
    link_ring,
    mixed_area,
    mixed_volume,
    volume_hessian,
)
from oracles import dense_jacobian, mesh_of, mp_pyramid, validate_polytope
from polyforge import catalog
from polyforge.errors import TriangleError
from polyforge.polytope import GeneralizedPolytope
from polyforge.triangulation import CornerMesh


@pytest.fixture
def tetra_dual():
    mesh = mesh_of(catalog.tetrahedron())
    r = math.sqrt(3.0) * np.array([1.5, 1.62, 1.44, 1.55])
    P = validate_polytope(GeneralizedPolytope(mesh, r))
    return P, dualize(P)


def test_dualize_inverts_radii(tetra_dual):
    P, dual = tetra_dual
    np.testing.assert_allclose(dual.h, 1.0 / P.r)
    # the fan's arcs are the apex angles of the 50-digit pyramids
    rad = P.r[P.mesh.vert]
    for f in range(P.mesh.ell.shape[0]):
        want = mp_pyramid(P.mesh.ell[f], rad[f])["phi"]
        np.testing.assert_allclose(dual.phi[f], want, rtol=0, atol=1e-12)


def test_fan_angles_spherical_octant():
    # three quarter-arcs bound an octant: every corner angle is pi/2
    phi = np.full((1, 3), math.pi / 2.0)
    np.testing.assert_allclose(fan_angles(phi), math.pi / 2.0, atol=1e-12)


def test_decompose_tetra_positive(tetra_dual):
    _, dual = tetra_dual
    dec = decompose(dual)
    assert dec.lstar.min() > 0.0
    assert np.all(dec.areas > 0.0)
    assert dec.volume > 0.0
    # the two orthoscheme routes to each corner foot agree
    np.testing.assert_allclose(dec.h_perp, dec.h_perp_mirror, atol=1e-12)
    # dual edge lengths are symmetric across the edge
    np.testing.assert_allclose(
        dec.lstar, dec.lstar.ravel()[dual.mesh.twin].reshape(-1, 3), atol=1e-12
    )


def test_volume_is_support_sum(tetra_dual):
    _, dual = tetra_dual
    dec = decompose(dual)
    assert dec.volume == pytest.approx(float(dual.h @ dec.areas) / 3.0, rel=1e-14)


def test_mixed_volume_on_diagonal(tetra_dual):
    _, dual = tetra_dual
    dec = decompose(dual)
    assert mixed_volume(dual, dual.h, dual.h, dual.h) == pytest.approx(
        dec.volume, rel=1e-12
    )


def test_mixed_volume_permutation_symmetric(tetra_dual):
    _, dual = tetra_dual
    rng = np.random.default_rng(7)
    x, y, z = rng.uniform(0.2, 1.0, (3, 4))
    vals = [
        mixed_volume(dual, *args)
        for args in itertools.permutations((x, y, z))
    ]
    assert max(vals) - min(vals) <= 1e-10 * max(1.0, abs(vals[0]))


def test_volume_homogeneity(tetra_dual):
    _, dual = tetra_dual
    vol = decompose(dual).volume
    scaled = DualPolyhedron(mesh=dual.mesh, phi=dual.phi, h=2.0 * dual.h)
    assert decompose(scaled).volume == pytest.approx(8.0 * vol, rel=1e-12)


def test_mixed_area_reproduces_face_areas(tetra_dual):
    _, dual = tetra_dual
    dec = decompose(dual)
    for i in range(4):
        assert mixed_area(dual, i, dual.h, dual.h) == pytest.approx(
            dec.areas[i], rel=1e-12
        )


def test_volume_gradient_is_area(tetra_dual):
    _, dual = tetra_dual
    dec = decompose(dual)
    t = 1e-6
    for j in range(4):
        hp, hm = dual.h.copy(), dual.h.copy()
        hp[j] += t
        hm[j] -= t
        dv = (
            decompose(DualPolyhedron(dual.mesh, dual.phi, hp), check=False).volume
            - decompose(DualPolyhedron(dual.mesh, dual.phi, hm), check=False).volume
        ) / (2.0 * t)
        assert dv == pytest.approx(dec.areas[j], abs=1e-8)


def test_support_weighted_area_variation(tetra_dual):
    # sum_i h_i dF_i = 2 dvol along any direction
    _, dual = tetra_dual
    rng = np.random.default_rng(8)
    dh = rng.normal(size=4)
    t = 1e-6
    hp = DualPolyhedron(dual.mesh, dual.phi, dual.h + t * dh)
    hm = DualPolyhedron(dual.mesh, dual.phi, dual.h - t * dh)
    dF = (decompose(hp, check=False).areas - decompose(hm, check=False).areas) / (
        2.0 * t
    )
    dvol = (decompose(hp, check=False).volume - decompose(hm, check=False).volume) / (
        2.0 * t
    )
    assert float(dual.h @ dF) == pytest.approx(2.0 * dvol, abs=1e-5)


def test_curvature_jacobian_is_volume_hessian(tetra_dual, cube_path):
    P, dual = tetra_dual
    J = dense_jacobian(P)
    H = volume_hessian(dual)
    assert np.abs(J - H).max() <= 1e-12 * np.abs(J).max()
    t, mesh, r = cube_path.samples[len(cube_path.samples) // 2]
    P2 = GeneralizedPolytope(mesh, r)
    J2, H2 = dense_jacobian(P2), volume_hessian(dualize(P2))
    assert np.abs(J2 - H2).max() <= 1e-8 * np.abs(J2).max()


def test_flat_diagonals_have_zero_dual_length(cube_metric):
    mesh = CornerMesh.from_metric(cube_metric)
    P = validate_polytope(GeneralizedPolytope(mesh, np.full(8, math.sqrt(3.0) / 2.0)))
    dec = decompose(dualize(P))
    flat = np.isclose(dec.lstar, 0.0, atol=1e-9)
    assert flat.any()
    assert dec.lstar[~flat].min() > 0.0
    assert np.all(dec.areas > 0.0)


def test_non_delaunay_fan_rejected(cube_metric):
    mesh = CornerMesh.from_metric(cube_metric)
    mesh.flip(0, 0)
    P = GeneralizedPolytope(mesh, np.full(8, 4.0))
    with pytest.raises(TriangleError, match="negative dual edge"):
        decompose(dualize(P))
    dec = decompose(dualize(P), check=False)
    assert dec.lstar.min() < 0.0  # the flipped diagonal, seen from the dual


def test_arc_range_enforced(tetra_dual):
    _, dual = tetra_dual
    bad = DualPolyhedron(dual.mesh, dual.phi.copy(), dual.h)
    bad.phi[0, 0] = math.pi
    with pytest.raises(TriangleError):
        decompose(bad)


def test_face_positivity_balances(tetra_path):
    t, mesh, r = tetra_path.samples[0]
    P = GeneralizedPolytope(mesh, r)
    positive, residual = face_positivity(P, np.full(4, math.pi))
    assert positive.all()
    np.testing.assert_allclose(residual, 0.0, atol=1e-9)


def test_face_positivity_needs_deficits(tetra_dual):
    P, _ = tetra_dual
    with pytest.raises(ValueError):
        face_positivity(P)


# -- links -------------------------------------------------------------------


def test_link_ring_closes():
    mesh = mesh_of(catalog.cube())
    degrees = np.zeros(8, dtype=int)
    for i in range(8):
        ring = link_ring(mesh, i)
        assert ring.vertex == i
        degrees[i] = ring.degree
        for f, c in ring.corners:
            assert mesh.vert[f, c] == i
    assert degrees.sum() == 3 * mesh.n_faces


def test_link_ring_missing_vertex():
    mesh = mesh_of(catalog.tetrahedron())
    with pytest.raises(ValueError):
        link_ring(mesh, 99)


def test_link_projection_matches_edge_chain(tetra_dual):
    from dual import _edge_chain

    _, dual = tetra_dual
    _, h_rev = _edge_chain(
        dual.mesh, dual.h, np.sin(dual.phi), np.cos(dual.phi)
    )
    for i in range(4):
        ring = link_ring(dual.mesh, i)
        x = link_projection(dual, ring) @ dual.h
        want = np.array([h_rev[f, u] for f, u in ring.sides])
        np.testing.assert_allclose(x, want, atol=1e-12)


def test_link_form_signature_positive_curvature():
    rng = np.random.default_rng(9)
    for _ in range(25):
        m = int(rng.integers(3, 9))
        w = rng.uniform(0.2, 2.0, size=m)
        w *= rng.uniform(0.5, 0.95) * 2.0 * math.pi / w.sum()
        if w.max() >= math.pi - 0.05:
            continue
        L = link_form(w)
        np.testing.assert_allclose(L, L.T)
        ev = np.linalg.eigvalsh(L)
        assert int((ev > 1e-12 * np.abs(ev).max()).sum()) == 1


def test_link_form_flat_ring_degenerates():
    # total wedge exactly 2*pi: the positive mode survives but a kernel
    # vector appears
    for m in (3, 5, 8):
        ev = np.linalg.eigvalsh(link_form(np.full(m, 2.0 * math.pi / m)))
        assert ev[-1] > 0.0
        assert abs(ev[-2]) <= 1e-12
        assert ev[0] < 0.0


def test_link_form_rejects_short_rings():
    with pytest.raises(ValueError):
        link_form([1.0])
