"""End-to-end acceptance gate.

Ten checks, one per shipped guarantee: the closed-form reconstructions
(tetrahedron, cube, doubly covered square), roundtrip congruence on 20
random hulls, Jacobian correctness and its identification with the dual
volume Hessian, non-degeneracy along every continuation path, the
translation kernel at closure, start-independence of the canonical
tesselation, and the curvature identities.  The tolerances here are the
contract; they must not be loosened to make a regression pass.
"""

import itertools
import math
import time

import numpy as np
import pytest

from dual import (
    DualPolyhedron,
    decompose,
    dualize,
    face_positivity,
    link_form,
    rank_profile,
    volume_hessian,
)
from oracles import (
    apex_inside,
    canonical_tesselation,
    dense_jacobian,
    mesh_deficits,
    total_height,
)
from polyforge import embed
from polyforge.errors import TriangleError
from polyforge.polytope import GeneralizedPolytope
from polyforge.triangulation import FlipError, weighted_delaunay


def _rebuild(P, r):
    return GeneralizedPolytope(P.mesh, r)


def _original_positions(run):
    """Hull sample points reindexed by metric vertex label."""
    cv = run.metric.corner_vertex
    nv = int(cv.max()) + 1
    out = np.empty((nv, 3))
    seen = np.zeros(nv, dtype=bool)
    for f in range(cv.shape[0]):
        for c in range(3):
            v = cv[f, c]
            if not seen[v]:
                out[v] = run.points[run.corner_point[f, c]]
                seen[v] = True
    assert seen.all()
    return out


def test_a01_tetrahedron_reconstruction(tetra_path):
    # Unit-edge regular tetrahedron: every chord length, the apex, and
    # the starting radii are known in closed form.
    t0 = time.perf_counter()
    e = embed.place_faces(tetra_path.result.polytope)
    assert tetra_path.wall_time + (time.perf_counter() - t0) < 5.0
    for i, j in itertools.combinations(range(4), 2):
        d = np.linalg.norm(e.vertices[i] - e.vertices[j])
        assert d == pytest.approx(1.0, abs=1e-6)
    apex = embed.solve_apex(e, tetra_path.result.r, tetra_path.result.kappa1)
    np.testing.assert_allclose(apex.point, e.vertices.mean(axis=0), atol=1e-6)
    np.testing.assert_allclose(
        tetra_path.result.r, math.sqrt(3.0 / 8.0), atol=1e-5
    )


def test_a02_cube_reconstruction(cube_path):
    assert cube_path.wall_time < 30.0
    e = embed.place_faces(cube_path.result.polytope, merge_coplanar=True)
    assert len(e.merged_faces) == 6
    normals = []
    for face in e.merged_faces:
        assert len(face) == 4
        cycle = e.vertices[list(face)]
        sides = np.linalg.norm(np.roll(cycle, -1, axis=0) - cycle, axis=1)
        np.testing.assert_allclose(sides, 1.0, atol=1e-5)
        n = np.cross(cycle[1] - cycle[0], cycle[2] - cycle[0])
        normals.append(n / np.linalg.norm(n))
    for i, j in itertools.combinations(range(6), 2):
        if len(set(e.merged_faces[i]) & set(e.merged_faces[j])) == 2:
            angle = math.acos(float(np.clip(normals[i] @ normals[j], -1.0, 1.0)))
            assert abs(angle - math.pi / 2.0) <= 1e-5
    assert e.volume == pytest.approx(1.0, rel=1e-5)


def test_a03_doubly_covered_square_degenerates(square_path):
    # The flat limit: the path stops once its folds classify, the embed
    # is flagged degenerate, and the apex sits in the relative interior.
    assert np.abs(square_path.result.polytope.kappa).max() < 1e-4
    e = embed.place_faces(square_path.result.polytope)
    assert e.degenerate
    assert abs(e.volume) <= 1e-8
    apex = embed.solve_apex(e, square_path.result.r, square_path.result.kappa1)
    assert apex_inside(e, apex.point)
    assert embed.apex_boundary_distance(e, apex.point) > 0.0


def test_a04_roundtrip_congruence(hull_paths):
    assert sum(run.wall_time for run in hull_paths) < 600.0
    for run in hull_paths:
        e = embed.place_faces(run.result.polytope)
        rms, _ = embed.congruence_check(e.vertices, _original_positions(run))
        assert rms <= 1e-4 * e.diameter, run.name
    assert any(len(run.result.events) >= 1 for run in hull_paths)


def test_a05_jacobian_matches_finite_differences(sampled_polytopes):
    for P in sampled_polytopes[:100]:
        J = dense_jacobian(P)
        assert np.abs(J - J.T).max() <= 1e-8 * np.abs(J).max()
        for j in range(P.n_vertices):
            h = 1e-6 * P.r[j]
            rp, rm = P.r.copy(), P.r.copy()
            rp[j] += h
            rm[j] -= h
            fd = (_rebuild(P, rp).kappa - _rebuild(P, rm).kappa) / (2.0 * h)
            np.testing.assert_allclose(fd, J[:, j], atol=1e-5)


def test_a06_jacobian_equals_dual_volume_hessian(
    sampled_polytopes, all_paths, square_path
):
    def check(P):
        J = dense_jacobian(P)
        H = volume_hessian(dualize(P))
        assert np.abs(J - H).max() <= 1e-8 * np.abs(J).max()

    for P in sampled_polytopes[:100]:
        check(P)
    for run in all_paths:
        stride = max(1, len(run.samples) // 8)
        for t, mesh, r in run.samples[::stride]:
            check(GeneralizedPolytope(mesh, r))
    # On the degenerate path the dual collapses with the body; the
    # identity is checked while the decomposition is well conditioned.
    checked = 0
    for t, mesh, r in square_path.samples:
        if t < 1e-3:
            continue
        check(GeneralizedPolytope(mesh, r))
        checked += 1
    assert checked >= 10


def test_a07_jacobian_nondegenerate_along_paths(all_paths):
    # Away from the closure floor (t >= 1e-6 keeps every kappa_i well
    # above the corrector tolerance) the system stays invertible.
    for run in all_paths:
        for t, mesh, r in run.samples:
            if t < 1e-6:
                continue
            P = GeneralizedPolytope(mesh, r)
            sv = np.linalg.svd(dense_jacobian(P), compute_uv=False)
            assert sv[-1] > 1e-10 * sv[0], (run.name, t)


def test_a08_rigidity_kernel_at_closure(all_paths):
    # At kappa = 0 only the three apex translations remain: corank is
    # exactly 3 and the kernel is spanned by the coordinates of the unit
    # vectors from the apex to the vertices.
    for run in all_paths:
        rp = rank_profile(dense_jacobian(run.result.polytope))
        assert rp.corank == 3, run.name
        e = embed.place_faces(run.result.polytope)
        apex = embed.solve_apex(e, run.result.r, run.result.kappa1)
        units = e.vertices - apex.point
        units /= np.linalg.norm(units, axis=1, keepdims=True)
        K = rp.kernel
        for col in units.T:
            b = col / np.linalg.norm(col)
            assert np.linalg.norm(b - K @ (K.T @ b)) <= 1e-4, run.name


def _scrambled(mesh, seed):
    rng = np.random.default_rng(seed)
    work = mesh.copy()
    done = 0
    for _ in range(60):
        try:
            work.flip(3 * int(rng.integers(work.n_faces)) + int(rng.integers(3)))
            done += 1
        except FlipError:
            continue
    return work, done


def test_a09_canonical_tesselation_unique(hull_paths):
    # 20 admissible (mesh, weights) pairs from mid-path states; the
    # canonical tesselation must not depend on the starting triangulation.
    for run in hull_paths:
        t, mesh, r = run.samples[len(run.samples) // 2]
        q = r * r
        digests = set()
        for seed in (0, 1, 2):
            work, done = _scrambled(mesh, seed)
            assert done > 0
            flips = weighted_delaunay(work, q, max_flips=10_000)
            assert flips <= 10_000
            digests.add(canonical_tesselation(work, q).digest)
        assert len(digests) == 1, run.name


def test_a10_curvature_identities(sampled_polytopes):
    corpus = sampled_polytopes[:100]

    # d(total height)/dr_i = kappa_i
    for P in corpus[::20]:
        for i in range(P.n_vertices):
            h = 1e-6
            rp, rm = P.r.copy(), P.r.copy()
            rp[i] += h
            rm[i] -= h
            fd = (
                total_height(_rebuild(P, rp))
                - total_height(_rebuild(P, rm))
            ) / (2.0 * h)
            assert fd == pytest.approx(P.kappa[i], abs=1e-6)

    # sum_i h_i dF_i = 2 dvol for the dual
    rng = np.random.default_rng(5)
    for P in corpus[::25]:
        dual = dualize(P)
        dh = rng.normal(size=P.n_vertices)
        s = 1e-6
        hp = DualPolyhedron(dual.mesh, dual.phi, dual.h + s * dh)
        hm = DualPolyhedron(dual.mesh, dual.phi, dual.h - s * dh)
        dF = (decompose(hp, check=False).areas - decompose(hm, check=False).areas) / (2 * s)
        dvol = (
            decompose(hp, check=False).volume - decompose(hm, check=False).volume
        ) / (2 * s)
        assert float(dual.h @ dF) == pytest.approx(2.0 * dvol, abs=1e-5)

    # spherical-section area balance and the per-vertex area identity
    for P in corpus:
        lhs = (P.pyramids.omega.sum(axis=1) - math.pi).sum()
        assert lhs == pytest.approx(4.0 * math.pi - P.kappa.sum(), abs=1e-8)
        positive, residual = face_positivity(P, mesh_deficits(P.mesh))
        assert positive.all()
        np.testing.assert_allclose(residual, 0.0, atol=1e-8)

    # every positively curved link carries exactly one expanding mode
    rng = np.random.default_rng(42)
    count = 0
    while count < 50:
        m = int(rng.integers(3, 9))
        w = rng.uniform(0.2, 2.0, size=m)
        w *= rng.uniform(0.5, 0.95) * 2.0 * math.pi / w.sum()
        if w.max() >= math.pi - 0.05:
            continue
        ev = np.linalg.eigvalsh(link_form(w))
        assert int((ev > 1e-12 * np.abs(ev).max()).sum()) == 1
        count += 1
