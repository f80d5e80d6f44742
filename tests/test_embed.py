import json
import math

import numpy as np
import pytest

import oracles
from conftest import thin_hull
from oracles import apex_inside, chord_error, convexity_violation, mesh_of
from polyforge import build_metric, catalog, embed, hull, polytope, solve_path
from polyforge.errors import EmbedError
from polyforge.polytope import GeneralizedPolytope
from polyforge.solver import start_state
from polyforge.triangulation import merge_regions


@pytest.fixture
def tetra_embedded(tetra_path):
    return embed.place_faces(tetra_path.result.polytope)


def test_tetra_chords_match_metric(tetra_path, tetra_embedded):
    assert tetra_embedded.n_vertices == 4
    assert chord_error(tetra_path.result.state.mesh, tetra_embedded.vertices) <= 1e-7
    assert tetra_embedded.closure_residual <= 1e-6 * tetra_embedded.diameter
    assert not tetra_embedded.degenerate


def test_tetra_volume_and_convexity(tetra_embedded):
    # unit-edge regular tetrahedron
    assert tetra_embedded.volume == pytest.approx(math.sqrt(2.0) / 12.0, rel=1e-6)
    assert convexity_violation(tetra_embedded) <= 1e-7 * tetra_embedded.diameter


def test_tetra_apex_is_centroid(tetra_path, tetra_embedded):
    apex = embed.solve_apex(tetra_embedded, tetra_path.result.r, tetra_path.result.kappa1)
    centroid = tetra_embedded.vertices.mean(axis=0)
    np.testing.assert_allclose(apex.point, centroid, atol=1e-6)
    dists = np.linalg.norm(tetra_embedded.vertices - apex.point, axis=1)
    np.testing.assert_allclose(dists, tetra_path.result.r, rtol=1e-5)
    np.testing.assert_allclose(dists, math.sqrt(3.0 / 8.0), rtol=1e-5)


def test_congruence_under_rigid_motion(tetra_embedded):
    rng = np.random.default_rng(12)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    moved = tetra_embedded.vertices @ q.T + np.array([0.3, -1.2, 2.5])
    rms, reflected = embed.congruence_check(tetra_embedded.vertices, moved)
    assert rms <= 1e-12
    assert not reflected


def test_congruence_detects_reflection():
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(10, 3))  # a chiral cloud
    mirrored = pts * np.array([1.0, 1.0, -1.0])
    rms, reflected = embed.congruence_check(pts, mirrored)
    assert rms <= 1e-12
    assert reflected


def test_cube_merges_to_six_squares(cube_path):
    e = embed.place_faces(cube_path.result.polytope, merge_coplanar=True)
    assert e.merged_faces is not None
    assert len(e.merged_faces) == 6
    assert all(len(face) == 4 for face in e.merged_faces)
    assert e.volume == pytest.approx(1.0, rel=1e-5)
    assert chord_error(cube_path.result.state.mesh, e.vertices) <= 1e-7
    # embedded quads are genuinely square
    for face in e.merged_faces:
        cycle = e.vertices[list(face)]
        sides = np.linalg.norm(np.roll(cycle, -1, axis=0) - cycle, axis=1)
        np.testing.assert_allclose(sides, 1.0, atol=1e-6)


def test_cube_dihedrals_are_right_angles(cube_path):
    e = embed.place_faces(cube_path.result.polytope, merge_coplanar=True)
    verts = e.vertices
    normals = {}
    for idx, face in enumerate(e.merged_faces):
        a, b, c = (verts[face[k]] for k in range(3))
        n = np.cross(b - a, c - a)
        normals[idx] = n / np.linalg.norm(n)
    for i in range(6):
        for j in range(i + 1, 6):
            shared = set(e.merged_faces[i]) & set(e.merged_faces[j])
            if len(shared) == 2:
                angle = math.acos(
                    float(np.clip(normals[i] @ normals[j], -1.0, 1.0))
                )
                assert abs(angle - math.pi / 2.0) <= 1e-5


def test_flat_square_degenerates_cleanly(square_path):
    e = embed.place_faces(square_path.result.polytope, merge_coplanar=True)
    assert e.degenerate
    # its folds are snapped to exactly 0 and pi: the layout closes and
    # stays in the plane to rounding level, and the merge, which reads
    # the snapped dihedrals, gives one square per sheet
    assert e.closure_residual <= 1e-15 * e.diameter
    assert np.abs(e.vertices[:, 2]).max() <= 1e-15 * e.diameter
    assert sorted(map(len, e.merged_faces)) == [4, 4]
    assert abs(e.volume) <= 1e-8 * e.diameter**3
    assert convexity_violation(e) == 0.0
    apex = embed.solve_apex(e, square_path.result.r, square_path.result.kappa1)
    assert apex_inside(e, apex.point)
    # unit-circumradius square: the center sits one apothem from the rim
    assert embed.apex_boundary_distance(e, apex.point) == pytest.approx(
        math.sqrt(0.5), abs=1e-5
    )


def _hull_body(points, faces):
    return embed.EmbeddedPolytope(
        vertices=points, faces=tuple(map(tuple, faces)), closure_residual=0.0,
        diameter=2.0, volume=1.0, degenerate=False,
    )


def test_apex_distance_matches_face_loop(all_paths):
    # the stacked products reproduce the per-face loop's bits; an einsum
    # or a row sum differs in the last digit on some of these hulls
    rng = np.random.default_rng(15)
    for n in (5, 8, 20, 40, 160, 320, 640):
        for seed in (1, 2, 3):
            _, points, faces = hull.random_sphere_development(n, seed=[seed, n])
            body = _hull_body(points, faces)
            w = rng.uniform(0.5, 2.0, size=n)
            for apex in (points.mean(axis=0), w @ points / w.sum()):
                assert embed.apex_boundary_distance(body, apex) == oracles.apex_boundary_distance(
                    body, apex
                ), (n, seed)
    for run in all_paths:
        e = embed.place_faces(run.result.polytope)
        apex = embed.solve_apex(e, run.result.r, run.result.kappa1).point
        assert embed.apex_boundary_distance(e, apex) == oracles.apex_boundary_distance(e, apex)
    # zero-area faces are skipped; with nothing left the distance is inf
    _, points, faces = hull.random_sphere_development(8, seed=1)
    flat = [(0, 0, 1), (2, 3, 2)]
    body = _hull_body(points, np.concatenate([flat, faces]))
    assert embed.apex_boundary_distance(body, points[0]) == oracles.apex_boundary_distance(
        body, points[0]
    )
    assert embed.apex_boundary_distance(_hull_body(points, flat), points[0]) == math.inf


_FLAT_BODIES = {
    **{
        f"doubled-{n}": lambda n=n: catalog.doubly_covered_polygon(n)
        for n in (3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48, 56, 64)
    },
    **{
        f"doubled-{a:g}-{b:g}-{c:g}": lambda s=(a, b, c): catalog.doubly_covered_triangle(*s)
        for a, b, c in ((3.0, 4.0, 5.0), (1.0, 1.0, 1.2), (2.0, 2.0, 3.0))
    },
}


@pytest.mark.parametrize("name", list(_FLAT_BODIES))
def test_flat_apex_distance_matches_hull(name):
    # a flat body's outline is its fold cycle: the distance to its fold
    # edges, each measured once in the counterclockwise direction, is the
    # distance to the edges of the Qhull hull of its vertices, bit for bit
    result = solve_path(build_metric(_FLAT_BODIES[name]()))
    e = embed.place_faces(result.polytope)
    assert e.degenerate and e.rim is not None
    tail, head = e.rim
    assert len(tail) == 2 * len(set(map(frozenset, zip(tail.tolist(), head.tolist()))))
    apex = embed.solve_apex(e, result.r, result.kappa1).point
    assert embed.apex_boundary_distance(e, apex) == oracles.apex_boundary_distance(e, apex)


def test_apex_outside_detected(tetra_embedded):
    assert not apex_inside(tetra_embedded, np.array([10.0, 0.0, 0.0]))


def test_loop_mesh_cannot_embed():
    mesh = mesh_of(catalog.doubly_covered_triangle(1.9, 1.0, 1.0))
    mesh.flip(0)
    P = GeneralizedPolytope(mesh, np.array([1.3, 1.25, 1.35]))
    with pytest.raises(
        EmbedError,
        match=r"^final mesh has a geodesic loop at vertex 0; curvature is not small enough$",
    ):
        embed.place_faces(P)


def _antipodal_cloud(rng, directions, center):
    """Points center + s_k e_k and center - t_k e_k for unit directions
    e_k, with unequal s_k and t_k and the weight w_k on both points of
    pair k.  The two unit vectors of a pair cancel at ``center``, so it
    is the weighted Fermat point."""
    e = directions / np.linalg.norm(directions, axis=1, keepdims=True)
    s, t = rng.uniform(0.5, 2.0, size=(2, len(e), 1))
    w = rng.uniform(0.5, 2.0, size=len(e))
    return np.concatenate([center + s * e, center - t * e]), np.concatenate([w, w])


@pytest.mark.parametrize("flat", [False, True])
def test_solve_apex_finds_the_known_fermat_point(flat):
    # from radii 1e-6 off the true distances, the fit and two Newton
    # steps land on the Fermat point to rounding level, in 3-D and, for
    # a body with a rim, in its plane
    rng = np.random.default_rng(14)
    center = np.array([0.3, -1.1, 0.7])
    directions = rng.normal(size=(5, 3))
    if flat:
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        directions = directions[:, :2] @ q[:2]
    points, w = _antipodal_cloud(rng, directions, center)
    body = _hull_body(points, ())
    body.diameter = float(np.linalg.norm(points[:, None] - points[None], axis=-1).max())
    if flat:
        body.rim = (np.array([0]), np.array([1]))  # only its presence is read
    r = np.linalg.norm(points - center, axis=1) * (1.0 + 1e-6 * rng.uniform(-1.0, 1.0, len(w)))
    sol = embed.solve_apex(body, r, w)
    assert np.linalg.norm(sol.point - center) <= 1e-12 * body.diameter
    assert sol.residual <= 1e-15
    assert sol.iterations == 2


def test_apex_residual_is_at_rounding_level(all_paths, square_path):
    for run in all_paths + [square_path]:
        e = embed.place_faces(run.result.polytope)
        assert embed.solve_apex(e, run.result.r, run.result.kappa1).residual <= 1e-15, run.name


def test_solve_apex_rejects_bad_weights(tetra_embedded):
    with pytest.raises(ValueError):
        embed.solve_apex(tetra_embedded, np.ones(4), [1.0, 0.0, 1.0, 1.0])


def test_obj_export(tetra_embedded):
    text = embed.as_obj(tetra_embedded)
    lines = text.strip().splitlines()
    v_lines = [l for l in lines if l.startswith("v ")]
    f_lines = [l for l in lines if l.startswith("f ")]
    assert len(v_lines) == 4
    assert len(f_lines) == 4
    for line in f_lines:
        idx = [int(tok) for tok in line.split()[1:]]
        assert all(1 <= k <= 4 for k in idx)


def test_obj_export_merged(cube_path):
    e = embed.place_faces(cube_path.result.polytope, merge_coplanar=True)
    text = embed.as_obj(e)
    f_lines = [l for l in text.splitlines() if l.startswith("f ")]
    assert len(f_lines) == 6
    assert all(len(l.split()) == 5 for l in f_lines)


def test_json_export(tetra_embedded):
    doc = json.loads(tetra_embedded.as_json())
    assert len(doc["vertices"]) == 4
    assert len(doc["faces"]) == 4
    assert doc["degenerate"] is False
    assert doc["volume"] == pytest.approx(math.sqrt(2.0) / 12.0, rel=1e-6)


def test_every_path_lands_and_closes_to_rounding(all_paths):
    # Every path of the session corpus lands at kappa = 0, where the
    # averaged placements meet every side length of the final
    # triangulation to rounding level: nothing is fitted afterwards.
    for run in all_paths:
        state = run.result.state
        assert (state.stop, state.t) == ("landed", 0.0), run.name
        e = embed.place_faces(run.result.polytope)
        assert chord_error(state.mesh, e.vertices) <= 1e-12 * e.diameter, run.name


_LANDING_CASES = {
    "twisted6": lambda: catalog.twisted_double_polygon(6),
    "twisted12": lambda: catalog.twisted_double_polygon(12),
    "twisted24": lambda: catalog.twisted_double_polygon(24),
    "hull160": lambda: hull.random_sphere_development(160, seed=[1, 160])[0],
    "hull640": lambda: hull.random_sphere_development(640, seed=[1, 640])[0],
    "hull2560": lambda: hull.random_sphere_development(2560, seed=[1, 2560])[0],
    **{
        name: lambda axes=axes: thin_hull(40, axes, seed=[3, 40])[0]
        for name, axes in (
            ("cigar-1-1-20", (1.0, 1.0, 20.0)),
            ("disc-100-1", (100.0, 100.0, 1.0)),
            ("disc-1000-1", (1000.0, 1000.0, 1.0)),
        )
    },
}


@pytest.mark.parametrize("name", list(_LANDING_CASES))
def test_3d_bodies_land_and_close_to_rounding(name):
    # the same for the other 3-D bodies of the tests and the workloads:
    # twisted polygons, the large hulls and the thin hulls, whose paths
    # flip hundreds of edges and are unclean.  The landed radii fix the
    # apex less well on thin bodies, and the apex's two Newton steps still
    # end at rounding level.
    result = solve_path(build_metric(_LANDING_CASES[name]()))
    state = result.state
    assert (state.stop, state.t) == ("landed", 0.0)
    e = embed.place_faces(result.polytope)
    assert not e.degenerate
    assert chord_error(state.mesh, e.vertices) <= 1e-12 * e.diameter
    assert embed.solve_apex(e, result.r, result.kappa1).residual <= 1e-15


def test_open_development_raises(cube_metric):
    # the cube's t = 1 polytope is far from closed: its curvature is kappa(1)
    P = start_state(cube_metric).P
    with pytest.raises(EmbedError, match=r"^development does not close"):
        embed.place_faces(P)


_UNFOLD_CASES = {
    "hull20": lambda: hull.random_sphere_development(20, seed=[1, 20])[0],
    "hull640": lambda: hull.random_sphere_development(640, seed=[1, 640])[0],
    "tetrahedron": lambda: catalog.tetrahedron(1.0),
    "cube": catalog.cube,
    "twisted6": lambda: catalog.twisted_double_polygon(6),
    "twisted24": lambda: catalog.twisted_double_polygon(24),
    "doubled4": lambda: catalog.doubly_covered_polygon(4),
}


@pytest.mark.parametrize("name", sorted(_UNFOLD_CASES))
def test_unfold_matches_face_loop(name):
    # every level of the batched unfold gives the face-by-face loop's
    # bits, on the raw dihedrals and with every one snapped to 0 or pi
    P = solve_path(build_metric(_UNFOLD_CASES[name]())).polytope
    theta = P.curvature_report().theta
    for th in (theta, np.where(theta < math.pi / 2.0, 0.0, math.pi)):
        pos, normal = embed._unfold(P.mesh, th)
        ref_pos, ref_normal = oracles.unfold_faces(P.mesh, th)
        assert np.array_equal(pos, ref_pos)
        assert np.array_equal(normal, ref_normal)


def test_solids_and_hulls_are_not_snapped(all_paths):
    # their dihedrals keep far from 0, so place_faces unfolds them raw
    for run in all_paths:
        P = run.result.polytope
        assert P.curvature_report().theta.min() > 1000.0 * polytope.FOLD_TOL, run.name
        e = embed.place_faces(P)
        pos, _ = oracles.unfold_faces(P.mesh, P.curvature_report().theta)
        assert e.closure_residual == embed._closure_spread(
            pos.reshape(-1, 3), P.mesh.vert.ravel()
        ), run.name


def test_folded_sheet_raises(square_path):
    # a face laid out mirrored within its sheet: the signed areas of one
    # side of the rim no longer share a sign
    P = square_path.result.polytope
    fold = P.curvature_report().folds()
    pos, _ = embed._unfold(P.mesh, np.where(fold, 0.0, math.pi))
    embed._check_sheets(P.mesh, pos, fold)
    sheet = next(r.faces for r in merge_regions(P.mesh, ~fold) if len(r.faces) > 1)
    pos[sheet[0]] = pos[sheet[0], [0, 2, 1]]
    with pytest.raises(EmbedError, match=r"^flat layout folds the sheet"):
        embed._check_sheets(P.mesh, pos, fold)


def _loop_closure_spread(points, labels):
    """The per-vertex loop that closure_residual used to come from."""
    spread = 0.0
    for v in range(int(labels.max()) + 1):
        placements = points[labels == v]
        for i in range(len(placements)):
            diffs = placements[i + 1 :] - placements[i]
            if len(diffs):
                spread = max(spread, float(np.sqrt((diffs**2).sum(axis=1)).max()))
    return spread


def _loop_diameter(verts):
    best = 0.0
    for i in range(len(verts)):
        d = np.sqrt(((verts[i + 1 :] - verts[i]) ** 2).sum(axis=1))
        if len(d):
            best = max(best, float(d.max()))
    return best


def test_vectorized_spread_and_diameter_match_loops(all_paths, square_path, monkeypatch):
    spreads, diameters = [], []
    spread_of, diameter_of = embed._closure_spread, embed._diameter

    def recorded_spread(points, labels):
        spreads.append(_loop_closure_spread(points, labels))
        return spread_of(points, labels)

    def recorded_diameter(verts):
        diameters.append(_loop_diameter(verts))
        return diameter_of(verts)

    monkeypatch.setattr(embed, "_closure_spread", recorded_spread)
    monkeypatch.setattr(embed, "_diameter", recorded_diameter)
    for run in all_paths + [square_path]:
        e = embed.place_faces(run.result.polytope)
        assert e.closure_residual == spreads.pop(), run.name
        assert e.diameter == diameters.pop(), run.name
    # random placements: uneven group sizes, a lone corner, repeated points,
    # and more rows than one diameter block
    rng = np.random.default_rng(11)
    labels = rng.integers(0, 40, 300)
    labels[0] = 40
    points = rng.standard_normal((300, 3)) * np.exp(rng.uniform(-30.0, 5.0, (300, 1)))
    points[5] = points[6]
    assert embed._closure_spread(points, labels) == _loop_closure_spread(points, labels)
    for verts in (points, points[:1], points[:2], points[:130]):
        assert embed._diameter(verts) == _loop_diameter(verts)


def _loop_signed_volume(verts, faces):
    """The per-face loop that volume used to come from."""
    c = verts.mean(axis=0)
    total = 0.0
    for i, j, k in faces:
        total += float(np.linalg.det(np.stack([verts[i] - c, verts[j] - c, verts[k] - c])))
    return total / 6.0


def test_vectorized_signed_volume_matches_loop(all_paths, square_path):
    for run in all_paths + [square_path]:
        e = embed.place_faces(run.result.polytope)
        assert e.volume == _loop_signed_volume(e.vertices, e.faces), run.name
    # random triangles over random points, at many magnitudes and both signs
    rng = np.random.default_rng(5)
    verts = rng.standard_normal((640, 3)) * np.exp(rng.uniform(-30.0, 5.0, (640, 1)))
    faces = [tuple(int(v) for v in row) for row in rng.integers(0, 640, (1276, 3))]
    for m in (1, 2, 37, 1276):
        assert embed._signed_volume(verts, faces[:m]) == _loop_signed_volume(verts, faces[:m])
