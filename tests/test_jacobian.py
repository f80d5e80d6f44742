import math
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest

from dual import rank_profile
from oracles import dense_jacobian, mesh_of, mp_pyramid, validate_polytope
from polyforge import catalog, jacobian
from polyforge.errors import StepReductionError
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
    mesh.flip(0)
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


def _pyramids(rng, n, foot, height):
    """(ell, rad) of n pyramids over random base triangles, each with its
    apex at ``height[f]`` over the point ``foot(base)[f]`` of its base
    plane; ``base[f, c]`` is corner c in the plane."""
    base = np.zeros((n, 3, 2))
    base[:, 1, 0] = rng.uniform(0.7, 2.5, n)
    base[:, 2] = rng.uniform([-0.5, 0.4], [2.5, 2.5], (n, 2))
    at = foot(base)
    ell = np.empty((n, 3))
    rad = np.empty((n, 3))
    for s in range(3):
        ell[:, s] = np.linalg.norm(base[:, (s + 1) % 3] - base[:, (s + 2) % 3], axis=1)
    for c in range(3):
        diff = at - base[:, c]
        rad[:, c] = np.sqrt(np.sum(diff * diff, axis=1) + height**2)
    return ell, rad


def test_lateral_factors_match_the_50_digit_angles():
    # ell sin rho_t sin rho_h and cos phi from the lateral triangle's sides
    # against the 50-digit slant and apex angles, on ordinary pyramids,
    # flat ones whose apex stands 1e-7 to 1e-3 over a point of a base side
    # (a needle lateral triangle: slant sines down to about 1e-7, where its
    # sides differ from a flat one's in the 14th digit), and tall ones 1e3
    # to 1e6 high (apex angles down to about 5e-6)
    rng = np.random.default_rng(17)
    n = 30

    def anywhere(base):
        return rng.uniform(-1.0, 3.0, (n, 2))

    def on_side_0(base):  # inside side 0, which joins corners 1 and 2
        u = rng.uniform(0.1, 0.9, (n, 1))
        return (1.0 - u) * base[:, 1] + u * base[:, 2]

    batches = [
        _pyramids(rng, n, anywhere, rng.uniform(0.3, 2.0, n)),
        _pyramids(rng, n, on_side_0, 10.0 ** rng.uniform(-7.0, -3.0, n)),
        _pyramids(rng, n, anywhere, 10.0 ** rng.uniform(3.0, 6.0, n)),
    ]
    ell, rad = (np.concatenate(x) for x in zip(*batches))
    r_t, r_h = rad[:, [1, 2, 0]], rad[:, [2, 0, 1]]
    lateral, cos_phi = jacobian._lateral_factors(r_t.ravel(), r_h.ravel(), ell.ravel())
    lateral, cos_phi = lateral.reshape(ell.shape), cos_phi.reshape(ell.shape)
    needle = 1.0
    for f in range(len(ell)):
        want = mp_pyramid(ell[f], rad[f])
        for s in range(3):
            sin_t, sin_h = mp.sin(want["rho_t"][s]), mp.sin(want["rho_h"][s])
            needle = min(needle, float(sin_t), float(sin_h))
            exact = mp.mpf(ell[f, s]) * sin_t * sin_h
            assert abs(lateral[f, s] / exact - 1) <= 1e-12, (f, s)
            assert abs(cos_phi[f, s] - mp.cos(want["phi"][s])) <= 1e-13, (f, s)
    assert needle < 1e-6


@pytest.mark.parametrize("case", ["apex-on-the-side", "apex-at-a-corner"])
def test_slant_sine_under_the_floor_rejects(case):
    # J is not differentiable where a lateral triangle degenerates: the
    # step is retried smaller.  The dihedrals here are those of a valid
    # polytope, so only the slant sines can trip the floor.
    mesh = mesh_of(catalog.tetrahedron())
    r = TETRA_CIRCUM * np.array([1.5, 1.62, 1.44, 1.55])
    P = validate_polytope(GeneralizedPolytope(mesh, r))
    assert np.sin(P.pyramids.alpha).min() > 0.1
    tail, head = mesh.vert[0, 1:]  # side 0 runs from corner 1 to corner 2
    r = P.r.copy()
    if case == "apex-on-the-side":  # r_t + r_h == ell exactly: sine 0
        r[tail] = r[head] = 0.5 * mesh.ell[0, 0]
    else:  # r_t = 1e-12 ell and r_h = ell: the slant sine at the head is 1e-12
        r[tail], r[head] = 1e-12 * mesh.ell[0, 0], mesh.ell[0, 0]
    fake = SimpleNamespace(mesh=mesh, pyramids=P.pyramids, r=r, n_vertices=P.n_vertices)
    with pytest.raises(StepReductionError, match="^a dihedral or slant angle is too close"):
        jacobian.assemble(fake, np.arange(P.n_vertices))
    # with the polytope's own radii it assembles
    jacobian.assemble(P, np.arange(P.n_vertices))
