import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import mesh_of, mp_pyramid, total_height, validate_polytope, weights
from polyforge import catalog, kernels
from polyforge.errors import PyramidError
from polyforge.polytope import FOLD_TOL, GeneralizedPolytope, solve_pyramids
from polyforge.solver import start_state
from polyforge.triangulation import CornerMesh

TETRA_EDGE = 2.0 * math.sqrt(2.0)
TETRA_CIRCUM = math.sqrt(3.0)
TETRA_DIHEDRAL = math.acos(1.0 / 3.0)


# -- single pyramids ----------------------------------------------------------


def test_unit_regular_pyramid_angles():
    geom = solve_pyramids(np.ones((1, 3)), np.ones((1, 3)))
    assert math.sqrt(geom.alt2[0]) ** 2 == pytest.approx(2.0 / 3.0, rel=1e-12)
    np.testing.assert_allclose(kernels.tri_angles(np.ones((1, 3))), math.pi / 3.0, atol=1e-12)
    np.testing.assert_allclose(geom.alpha, TETRA_DIHEDRAL, atol=1e-12)
    np.testing.assert_allclose(geom.omega, TETRA_DIHEDRAL, atol=1e-12)


def test_no_pyramid_below_circumradius():
    with pytest.raises(PyramidError, match="no apex pyramid"):
        solve_pyramids(np.ones((1, 3)), np.full((1, 3), 0.5))


def test_near_flat_pyramid_refined():
    # squared altitude 1e-10 of a unit base: the row is solved in doubles,
    # and its dihedrals stay within a hundredth of FOLD_TOL of the
    # 50-digit pyramid
    r = math.sqrt(1.0 / 3.0 + 1e-10)
    batch = solve_pyramids(np.array([[1.0, 1.0, 1.0]]), np.full((1, 3), r))
    assert not batch.refined.any()
    assert batch.alt2[0] == pytest.approx(1e-10, rel=1e-5)
    want = mp_pyramid([1.0] * 3, [r] * 3)
    for key in ("alpha", "omega"):
        assert np.abs(getattr(batch, key)[0] - want[key]).max() <= FOLD_TOL / 100


def test_barely_missing_pyramid_refined_then_rejected():
    r = math.sqrt(1.0 / 3.0 - 1e-10)
    with pytest.raises(PyramidError):
        solve_pyramids(np.array([[1.0, 1.0, 1.0]]), np.full((1, 3), r))


def test_dead_faces_listed_in_face_order():
    # every face without a pyramid is named, whether its apex lies just
    # below the base plane or far below it
    circ = 1.0 / math.sqrt(3.0)
    live = [math.sqrt(circ**2 + 1e-10)] * 3
    below = [math.sqrt(circ**2 - 1e-10)] * 3
    rad = np.array([live, below, [1.0] * 3, [0.45] * 3, live, below])
    with pytest.raises(PyramidError) as exc:
        solve_pyramids(np.ones_like(rad), rad)
    assert str(exc.value) == "no apex pyramid over faces [1, 3, 5]"


@st.composite
def _pyramids(draw):
    # a genuine 3D apex over a well-shaped planar base
    x1 = draw(st.floats(0.7, 2.5))
    x2 = draw(st.floats(-0.5, 2.5))
    y2 = draw(st.floats(0.5, 2.5))
    ax = draw(st.floats(-0.5, 2.5))
    ay = draw(st.floats(-0.5, 2.5))
    az = draw(st.floats(0.3, 2.0))
    base = np.array([[0.0, 0.0, 0.0], [x1, 0.0, 0.0], [x2, y2, 0.0]])
    return base, np.array([ax, ay, az])


def _dihedral(p, q, w1, w2):
    e = q - p
    e = e / np.linalg.norm(e)
    a = w1 - p
    b = w2 - p
    a = a - (a @ e) * e
    b = b - (b @ e) * e
    return math.atan2(np.linalg.norm(np.cross(a, b)), float(a @ b))


@given(_pyramids())
@settings(max_examples=150, deadline=None)
def test_pyramid_matches_explicit_coordinates(data):
    base, apex = data
    lengths = [
        np.linalg.norm(base[2] - base[1]),
        np.linalg.norm(base[0] - base[2]),
        np.linalg.norm(base[1] - base[0]),
    ]
    radii = np.linalg.norm(base - apex, axis=1)
    geom = solve_pyramids(np.array([lengths]), radii[None, :])
    assert math.sqrt(geom.alt2[0]) == pytest.approx(apex[2], rel=1e-8, abs=1e-10)
    for s in range(3):
        t, h = (s + 1) % 3, (s + 2) % 3
        want = _dihedral(base[t], base[h], base[s], apex)
        assert geom.alpha[0, s] == pytest.approx(want, abs=1e-8)
    for c in range(3):
        u, v = (c + 1) % 3, (c + 2) % 3
        want = _dihedral(apex, base[c], base[u], base[v])
        assert geom.omega[0, c] == pytest.approx(want, abs=1e-8)


# -- generalized polytopes ----------------------------------------------------


def tetra_polytope(r):
    mesh = mesh_of(catalog.tetrahedron())
    return validate_polytope(GeneralizedPolytope(mesh, np.full(4, float(r))))


def test_tetra_at_circumradius_closes_up():
    P = tetra_polytope(TETRA_CIRCUM)
    np.testing.assert_allclose(P.kappa, 0.0, atol=1e-9)
    rep = P.curvature_report()
    np.testing.assert_allclose(rep.theta, TETRA_DIHEDRAL, atol=1e-9)
    want = 6.0 * TETRA_EDGE * (math.pi - TETRA_DIHEDRAL)
    assert total_height(P) == pytest.approx(want, rel=1e-9)


def test_tetra_inflated_has_positive_curvature():
    P = tetra_polytope(2.0 * TETRA_CIRCUM)
    assert np.all(P.kappa > 0.0)
    assert np.all(P.kappa < math.pi)  # below the cone deficit


def test_cube_at_circumradius_closes_up(cube_metric):
    mesh = CornerMesh.from_metric(cube_metric)
    P = validate_polytope(GeneralizedPolytope(mesh, np.full(8, math.sqrt(3.0) / 2.0)))
    np.testing.assert_allclose(P.kappa, 0.0, atol=1e-9)
    theta = P.curvature_report().theta[mesh.edges()]
    # 12 cube edges at pi/2, 6 face diagonals exactly flat
    sharp = np.isclose(theta, math.pi / 2.0, atol=1e-9).sum()
    flat = np.isclose(theta, math.pi, atol=1e-9).sum()
    assert (sharp, flat) == (12, 6)


def test_solid_angle_excess_balance():
    for r in (TETRA_CIRCUM, 1.5 * TETRA_CIRCUM, 3.0 * TETRA_CIRCUM):
        P = tetra_polytope(r)
        # spherical area of each face's apex figure: angle sum - pi
        lhs = (P.pyramids.omega.sum(axis=1) - math.pi).sum()
        rhs = 4.0 * math.pi - P.kappa.sum()
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_total_height_gradient_is_kappa():
    mesh = mesh_of(catalog.tetrahedron())
    r0 = TETRA_CIRCUM * np.array([1.25, 1.31, 1.22, 1.27])
    kappa = validate_polytope(GeneralizedPolytope(mesh, r0)).kappa
    h = 1e-6
    for i in range(4):
        rp, rm = r0.copy(), r0.copy()
        rp[i] += h
        rm[i] -= h
        hp = total_height(validate_polytope(GeneralizedPolytope(mesh, rp)))
        hm = total_height(validate_polytope(GeneralizedPolytope(mesh, rm)))
        assert (hp - hm) / (2.0 * h) == pytest.approx(kappa[i], abs=1e-6)


def test_rejects_non_delaunay_triangulation(cube_metric):
    mesh = CornerMesh.from_metric(cube_metric)
    mesh.flip(0, 0)  # flipping a strictly good edge leaves a bad diagonal
    with pytest.raises(PyramidError, match="weighted-Delaunay"):
        validate_polytope(GeneralizedPolytope(mesh, np.full(8, 4.0)))


def test_rejects_bad_radii():
    mesh = mesh_of(catalog.tetrahedron())
    with pytest.raises(ValueError):
        GeneralizedPolytope(mesh, np.ones(3))
    with pytest.raises(PyramidError):
        GeneralizedPolytope(mesh, np.array([1.0, 1.0, 1.0, -0.5]))


def test_rejects_non_finite_radii(cube_metric):
    # NaN fails the positivity check; inf passes it, and the exact solve
    # of the rows it flags rejects it
    state = start_state(cube_metric)
    cases = ((math.nan, "^radii must be strictly positive"), (math.inf, "^non-finite"))
    for value, message in cases:
        r = state.r.copy()
        r[3] = value
        with pytest.raises(PyramidError, match=message):
            GeneralizedPolytope(state.mesh, r)


def test_weights_are_squared_radii():
    P = tetra_polytope(2.0)
    np.testing.assert_allclose(weights(P), 4.0)
    assert P.n_vertices == 4


def test_curvature_report_matches_edge_loop(sampled_polytopes):
    for P in sampled_polytopes[::10]:
        rep = P.curvature_report()
        mesh, alpha = P.mesh, P.pyramids.alpha
        theta = np.full((mesh.n_faces, 3), np.nan)
        height = float(np.dot(P.r, rep.kappa))
        for f, s in zip(*mesh.edges()):
            g, s2 = mesh.neighbor(f, s)
            theta[f, s] = theta[g, s2] = alpha[f, s] + alpha[g, s2]
            height += float(mesh.ell[f, s]) * (math.pi - theta[f, s])
        assert rep.theta.shape == (mesh.n_faces, 3)
        np.testing.assert_array_equal(rep.theta, theta)
        assert total_height(P) == pytest.approx(height, rel=1e-12)


def test_twin_slots_share_theta(sampled_polytopes):
    for P in sampled_polytopes:
        theta, mesh = P.curvature_report().theta, P.mesh
        np.testing.assert_array_equal(theta, theta.ravel()[mesh.twin].reshape(-1, 3))


def test_report_is_cached():
    P = tetra_polytope(2.0)
    assert P.curvature_report() is P.curvature_report()
