import math

import numpy as np
import pytest

from dual import rank_profile
from oracles import dense_jacobian, mesh_of, validate_polytope
from polyforge import catalog
from polyforge.polytope import GeneralizedPolytope

TETRA_CIRCUM = math.sqrt(3.0)


def fd_column(mesh, r, j, h):
    rp, rm = r.copy(), r.copy()
    rp[j] += h
    rm[j] -= h
    kp = GeneralizedPolytope(mesh, rp).kappa
    km = GeneralizedPolytope(mesh, rm).kappa
    return (kp - km) / (2.0 * h)


def test_tetra_closed_state_is_rank_one():
    # at the circumradius the curvature map degenerates to pure inflation:
    # every entry of the Jacobian is the same positive number
    mesh = mesh_of(catalog.tetrahedron())
    J = dense_jacobian(validate_polytope(GeneralizedPolytope(mesh, np.full(4, TETRA_CIRCUM))))
    assert J[0, 0] > 0.0
    np.testing.assert_allclose(J, J[0, 0], rtol=1e-9)


def test_matches_finite_differences_on_tetra():
    mesh = mesh_of(catalog.tetrahedron())
    r = TETRA_CIRCUM * np.array([1.5, 1.62, 1.44, 1.55])
    J = dense_jacobian(validate_polytope(GeneralizedPolytope(mesh, r)))
    for j in range(4):
        fd = fd_column(mesh, r, j, 1e-6 * r[j])
        np.testing.assert_allclose(J[:, j], fd, atol=1e-6)


def test_matches_finite_differences_with_loop_edge():
    # flipping the long side of a doubled obtuse triangle leaves a loop;
    # both directed copies of the loop feed the diagonal entry
    mesh = mesh_of(catalog.doubly_covered_triangle(1.9, 1.0, 1.0))
    mesh.flip(0, 0)
    r = np.array([1.3, 1.25, 1.35])
    J = dense_jacobian(GeneralizedPolytope(mesh, r))
    for j in range(3):
        fd = fd_column(mesh, r, j, 1e-7)
        np.testing.assert_allclose(J[:, j], fd, atol=1e-6)


def test_matches_finite_differences_along_paths(tetra_path, cube_path):
    rng = np.random.default_rng(11)
    for path in (tetra_path, cube_path):
        for t, mesh, r in path.samples[:: max(1, len(path.samples) // 3)]:
            P = GeneralizedPolytope(mesh, r)
            J = dense_jacobian(P)
            for j in rng.choice(len(r), size=2, replace=False):
                fd = fd_column(mesh, r, int(j), 1e-6 * r[j])
                np.testing.assert_allclose(J[:, j], fd, atol=1e-5)


def test_symmetry_is_emergent(tetra_path, cube_path, square_path):
    for path in (tetra_path, cube_path, square_path):
        for t, mesh, r in path.samples:
            J = dense_jacobian(GeneralizedPolytope(mesh, r))
            scale = max(1.0, float(np.abs(J).max()))
            assert np.abs(J - J.T).max() <= 1e-8 * scale


def test_rank_profile_full_rank_when_inflated():
    mesh = mesh_of(catalog.tetrahedron())
    P = validate_polytope(GeneralizedPolytope(mesh, np.full(4, 2.0 * TETRA_CIRCUM)))
    J = dense_jacobian(P)
    rp = rank_profile(J)
    assert rp.corank == 0
    assert rp.rank == 4
    assert rp.kernel.shape == (4, 0)
    assert np.all(np.diff(rp.sigma) <= 0.0)


def test_rank_profile_translations_at_closure():
    # kappa = 0: the apex can translate, so the kernel is spanned by the
    # coordinates of the unit vectors from the apex to the vertices
    mesh = mesh_of(catalog.tetrahedron())
    J = dense_jacobian(validate_polytope(GeneralizedPolytope(mesh, np.full(4, TETRA_CIRCUM))))
    rp = rank_profile(J)
    assert rp.corank == 3
    verts = np.array(
        [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
    )
    units = verts / np.linalg.norm(verts, axis=1, keepdims=True)
    K = rp.kernel
    for col in units.T:
        resid = col - K @ (K.T @ col)
        assert np.linalg.norm(resid) <= 1e-4 * np.linalg.norm(col)


def test_rank_profile_rejects_tiny_systems():
    with pytest.raises(ValueError):
        rank_profile(np.eye(2))
