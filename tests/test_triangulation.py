import json
import math

import numpy as np
import pytest

import oracles
from oracles import (
    badness,
    canonical_tesselation,
    cone_angles,
    develop_quad,
    ext_value,
    mesh_of,
    validate_mesh,
)
from polyforge import build_metric, catalog, hull, jacobian, kernels
from polyforge.errors import FlipError, InadmissibleWeightsError, TriangleError
from polyforge.polytope import GeneralizedPolytope
from polyforge.solver import _edge_theta, solve_path
from polyforge.triangulation import (
    BAD_TOL,
    CornerMesh,
    badness_scan,
    merge_regions,
    weighted_delaunay,
)


# -- structural ------------------------------------------------------------


def test_validate_catalog_meshes():
    for make in catalog.NAMED.values():
        validate_mesh(mesh_of(make()))


def test_edge_count_and_euler(cube_metric):
    mesh = CornerMesh.from_metric(cube_metric)
    assert mesh.n_faces == 12
    assert mesh.n_edges == 18
    assert mesh.n_vertices - mesh.n_edges + mesh.n_faces == 2


def test_cone_angles_match_metric(cube_metric):
    mesh = CornerMesh.from_metric(cube_metric)
    np.testing.assert_allclose(cone_angles(mesh), cube_metric.cone_angles, atol=1e-12)


def test_json_roundtrip():
    mesh = mesh_of(catalog.cube())
    again = CornerMesh(**json.loads(mesh.to_json()))
    np.testing.assert_array_equal(again.vert, mesh.vert)
    np.testing.assert_allclose(again.ell, mesh.ell)
    np.testing.assert_array_equal(again.twin, mesh.twin)
    validate_mesh(again)


# -- quad development and flips ---------------------------------------------


def test_rhombus_flip_diagonal():
    # two unit equilateral triangles: flipping the shared side of length 1
    # yields the long rhombus diagonal sqrt(3)
    mesh = mesh_of(catalog.doubly_covered_triangle(1.0, 1.0, 1.0))
    quad = develop_quad(mesh, 0, 0)
    assert quad.diagonal == pytest.approx(math.sqrt(3.0), rel=1e-14)
    new_len = mesh.flip(0)
    assert new_len == pytest.approx(math.sqrt(3.0), rel=1e-14)
    validate_mesh(mesh)


def test_edges_match_corner_walk():
    # reference: one slot per edge, the side that precedes its twin
    meshes = [mesh_of(make()) for make in catalog.NAMED.values()]
    twisted = mesh_of(catalog.twisted_double_polygon(6))
    weighted_delaunay(twisted, np.ones(twisted.n_vertices))
    for mesh in meshes + [twisted]:
        walk = [
            (f, s)
            for f in range(mesh.n_faces)
            for s in range(3)
            if (f, s) <= divmod(int(mesh.twin[3 * f + s]), 3)
        ]
        e = mesh.edges()
        assert [divmod(x, 3) for x in e.tolist()] == walk
        assert len(e) == mesh.n_edges
        assert e.dtype.kind == "i"


@pytest.mark.parametrize(
    "dev",
    [catalog.cube(), hull.random_sphere_development(40, seed=3)[0]],
    ids=["cube", "hull40"],
)
def test_side_ends_follow_the_corner_rule_before_and_after_a_flip(dev):
    # side s of face f runs from corner (s+1)%3 to corner (s+2)%3; the
    # flip drops the cache, so the second pass reads a rebuilt table
    mesh = mesh_of(dev)
    slot = np.arange(3 * mesh.n_faces)
    f, s = np.divmod(slot, 3)
    tail, head = 3 * f + (s + 1) % 3, 3 * f + (s + 2) % 3
    np.testing.assert_array_equal(kernels.side_ends(slot), [tail, head])
    for x in slot.tolist():
        assert kernels.side_ends(x).tolist() == [tail[x], head[x]]
    flippable = next(e for e in mesh.edges().tolist() if _can_flip(mesh, e))
    for _ in range(2):
        ends = mesh.side_ends()
        assert ends.shape == (2, slot.size)
        np.testing.assert_array_equal(ends, [mesh.vert[f, (s + 1) % 3], mesh.vert[f, (s + 2) % 3]])
        assert mesh.side_ends() is ends  # kept in the cache
        mesh.flip(flippable)
        assert mesh.side_ends() is not ends


def _can_flip(mesh, e):
    try:
        mesh.copy().flip(e)
    except FlipError:
        return False
    return True


def test_flip_preserves_cone_angles():
    mesh = mesh_of(catalog.cube())
    before = cone_angles(mesh)
    flipped = 0
    for e in mesh.edges():
        work = mesh.copy()
        try:
            work.flip(e)
        except FlipError:
            continue
        validate_mesh(work)
        np.testing.assert_allclose(cone_angles(work), before, atol=1e-10)
        flipped += 1
    assert flipped > 0


def test_flip_twice_restores_lengths():
    mesh = mesh_of(catalog.cube())
    orig = np.sort(mesh.ell.ravel())
    mesh.flip(0)
    mesh.flip(0)  # the new diagonal is side 0 of the rewritten face
    validate_mesh(mesh)
    np.testing.assert_allclose(np.sort(mesh.ell.ravel()), orig, atol=1e-12)


def test_doubly_covered_develops_as_kite():
    mesh = mesh_of(catalog.doubly_covered_triangle(1.0, 1.0, 1.9))
    quad = develop_quad(mesh, 0, 0)
    # the two copies mirror each other across the shared side
    np.testing.assert_allclose(quad.pk[1], -quad.pl[1], atol=1e-14)
    np.testing.assert_allclose(quad.pk[0], quad.pl[0], atol=1e-14)


def test_flip_obtuse_double_creates_loop():
    # flipping the long side of a doubly covered obtuse triangle makes a
    # geodesic loop based at the opposite vertex
    mesh = mesh_of(catalog.doubly_covered_triangle(1.9, 1.0, 1.0))
    assert mesh.ell[0, 0] == pytest.approx(1.9)
    mesh.flip(0)
    validate_mesh(mesh)
    i, j = mesh.vert[0, 1:]  # side 0 runs from corner 1 to corner 2
    assert i == j  # loop
    # the loop edge still develops (the face is laid out twice)
    quad = develop_quad(mesh, 0, 0)
    assert np.isfinite(quad.pl).all()
    # ... and flipping it back restores the original edge length
    assert mesh.flip(0) == pytest.approx(1.9, rel=1e-12)


def test_flip_refuses_same_face():
    mesh = mesh_of(catalog.doubly_covered_triangle(1.9, 1.0, 1.0))
    mesh.flip(0)
    # the two short sides of each new face are glued to each other
    same_face = [e for e in range(6) if mesh.twin[e] // 3 == e // 3]
    assert same_face
    with pytest.raises(FlipError):
        mesh.flip(same_face[0])


def test_flip_refuses_nonconvex_quad():
    # the quad around a short side of a doubly covered obtuse triangle is
    # a nonconvex kite (reflex angle at the obtuse corner)
    mesh = mesh_of(catalog.doubly_covered_triangle(1.9, 1.0, 1.0))
    with pytest.raises(FlipError):
        mesh.flip(1)  # side 1 of face 0


def test_randomized_flips_keep_metric():
    rng = np.random.default_rng(4)
    mesh = mesh_of(catalog.cube())
    angles = cone_angles(mesh)
    for _ in range(200):
        f = int(rng.integers(mesh.n_faces))
        s = int(rng.integers(3))
        try:
            mesh.flip(3 * f + s)
        except FlipError:
            continue
    validate_mesh(mesh)
    np.testing.assert_allclose(cone_angles(mesh), angles, atol=1e-9)


# -- badness ----------------------------------------------------------------


def test_ext_value_centroid():
    p = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
    centroid = p.mean(axis=0)
    val = ext_value(p[0], p[1], p[2], 0.0, 0.0, 0.0, centroid)
    assert val == pytest.approx(-1.0 / 3.0, abs=1e-14)


def test_ext_value_collinear_raises():
    with pytest.raises(TriangleError):
        ext_value([0, 0], [1, 0], [2, 0], 0, 0, 0, [0.5, 0.5])


def test_badness_against_scalar_path():
    rng = np.random.default_rng(5)
    mesh = mesh_of(catalog.cube())
    for _ in range(20):
        q = rng.uniform(0.5, 3.0, size=mesh.n_vertices)
        e, vals = badness_scan(mesh, q)
        for x, v in zip(e.tolist(), vals):
            quad = develop_quad(mesh, *divmod(x, 3))
            i, j, k, l = quad.labels
            oracle = float(q[l]) - ext_value(
                quad.pi, quad.pj, quad.pk, q[i], q[j], q[k], quad.pl
            )
            assert v == pytest.approx(oracle, abs=1e-9)


def test_rectangle_diagonal_weights():
    # a doubly covered right triangle, developed across its hypotenuse, is
    # a kite whose mirror axis is a circumdiameter: the far corner is
    # exactly cocircular with equal weights, and raising the right-angle
    # corner's weight breaks the tie.
    w, h = 2.0, 1.0
    d = math.hypot(w, h)
    mesh = mesh_of(catalog.doubly_covered_triangle(d, h, w))
    quad = develop_quad(mesh, 0, 0)
    assert quad.diagonal == pytest.approx(2.0 * w * h / d, rel=1e-12)
    one = np.array([0])  # the edge of slot 0 alone
    q = np.zeros(mesh.n_vertices)
    assert badness(mesh, q, one)[0] <= BAD_TOL
    q[mesh.vert[0, 0]] = 1.0  # the right-angle corner (= both far corners)
    assert badness(mesh, q, one)[0] > BAD_TOL


def test_flat_quad_raises():
    # sides (2, 1, 1): the far corner of each copy lies on the long side,
    # so the quad around it has flat triangles and no badness
    mesh = mesh_of(catalog.doubly_covered_triangle(1.9, 1.0, 1.0))
    mesh.ell[:] = (2.0, 1.0, 1.0)
    with pytest.raises(TriangleError, match="flat triangle"):
        badness_scan(mesh, np.ones(mesh.n_vertices))
    with pytest.raises(TriangleError, match="flat triangle"):
        weighted_delaunay(mesh, np.ones(mesh.n_vertices))


def test_polytope_weights_always_good(tetra_path):
    # q = r^2 of a valid generalized polytope leaves every edge good
    t, mesh, r = tetra_path.samples[0]
    _, vals = badness_scan(mesh, r * r)
    assert vals.max() <= 1e-10 * max(1.0, float((r * r).max()))


# -- the flip algorithm -------------------------------------------------------


def test_tetra_equal_weights_already_delaunay(tetra_metric):
    mesh = CornerMesh.from_metric(tetra_metric)
    assert weighted_delaunay(mesh, np.ones(4)) == 0


def test_cube_equal_weights_diagonals_inessential(cube_metric):
    mesh = CornerMesh.from_metric(cube_metric)
    q = np.ones(8)
    assert weighted_delaunay(mesh, q) == 0
    _, vals = badness_scan(mesh, q)
    assert np.sum(np.abs(vals) <= 1e-9) == 6  # one cocircular diagonal per square face
    assert np.sum(vals < -1e-9) == 12  # the cube edges
    tess = canonical_tesselation(mesh, q)
    assert tess.n_regions == 6


def test_doubled_square_diagonal_inessential(square_metric):
    mesh = CornerMesh.from_metric(square_metric)
    q = np.ones(4)
    weighted_delaunay(mesh, q)
    tess = canonical_tesselation(mesh, q)
    assert tess.n_regions == 2
    assert len(tess.inessential) == 2  # one diagonal per copy


def test_generic_weights_have_no_inessential_edges():
    rng = np.random.default_rng(6)
    mesh = mesh_of(catalog.cube())
    q = rng.uniform(0.5, 2.0, size=8)
    weighted_delaunay(mesh, q)
    tess = canonical_tesselation(mesh, q)
    assert len(tess.inessential) == 0


def _quad_extension_probe(mesh, q, f, s):
    """Extension value at the centroid of the quad around side (f, s)."""
    quad = develop_quad(mesh, f, s)
    i, j, k, l = quad.labels
    c = 0.25 * (quad.pi + quad.pj + quad.pk + quad.pl)
    # The centroid lies on the k side or the l side of the diagonal;
    # evaluate the extension of the triangle that contains it.
    if c[1] >= 0.0:
        return ext_value(quad.pi, quad.pj, quad.pk, q[i], q[j], q[k], c)
    return ext_value(quad.pi, quad.pj, quad.pl, q[i], q[j], q[l], c)


def test_flips_never_lower_the_extension():
    # the termination argument of the flip algorithm: flipping a bad edge
    # raises the piecewise quadratic extension of the weights over its quad
    # (the new diagonal is side 0 of the rewritten face f).  A round's
    # quads are probed when its hook runs, and checked when the next
    # round's hook runs or the loop ends.
    flips = admissible = 0
    for n in (12, 20, 40):
        for seed in range(4):
            dev, _, _ = hull.random_sphere_development(n, seed=seed)
            mesh = mesh_of(dev)
            rng = np.random.default_rng(100 * n + seed)
            q = rng.uniform(0.0, 0.1, mesh.n_vertices) * float(mesh.ell.max()) ** 2
            scale = max(1.0, float(q.max()))
            pending = []

            def check_pending():
                while pending:
                    f, before = pending.pop()
                    after = _quad_extension_probe(mesh, q, f, 0)
                    assert after >= before - 1e-12 * scale

            def on_flip(m, e):
                check_pending()
                pending.extend(
                    (x // 3, _quad_extension_probe(m, q, *divmod(x, 3))) for x in e.tolist()
                )

            try:
                flips += weighted_delaunay(mesh, q, on_flip=on_flip)
            except InadmissibleWeightsError:
                continue  # no weighted Delaunay triangulation for these weights
            check_pending()
            admissible += 1
    assert admissible >= 6 and flips >= 20


def test_flip_undone_by_delaunay(cube_metric):
    # flipping a strictly good edge leaves a strictly bad diagonal, and
    # the flip pass restores the same tesselation
    q = np.ones(8)
    mesh = CornerMesh.from_metric(cube_metric)
    want = canonical_tesselation(mesh, q).digest
    for e in mesh.edges():
        work = mesh.copy()
        try:
            work.flip(e)
        except FlipError:
            continue
        if badness_scan(work, q)[1].max() <= 1e-10:
            continue  # flipped a cocircular diagonal
        n = weighted_delaunay(work, q)
        assert n >= 1
        assert canonical_tesselation(work, q).digest == want
        break
    else:
        pytest.fail("no flippable strictly-good edge found")


def _scrambled(mesh, seed):
    """A different triangulation of the same surface: random legal flips."""
    rng = np.random.default_rng(seed)
    work = mesh.copy()
    done = 0
    for _ in range(60):
        f = int(rng.integers(work.n_faces))
        s = int(rng.integers(3))
        try:
            work.flip(3 * f + s)
            done += 1
        except FlipError:
            continue
    validate_mesh(work)
    return work, done


def _outcome(flip_loop, mesh, q, budget):
    """A flip loop's flip count, or the first word of its
    InadmissibleWeightsError: "bad" (blocked for good) or "flip" (budget
    exhausted)."""
    try:
        return flip_loop(mesh, q, max_flips=budget)
    except InadmissibleWeightsError as exc:
        return str(exc).split()[0]


def test_flip_rounds_agree_with_the_one_flip_at_a_time_reference():
    # The rounds and the reference flip in different orders, so their
    # counts may differ; their outcome may not, and a converged pass must
    # reach the reference's triangulation with no bad edge left.
    # Scrambled meshes need many flips; random weights on the hulls' own
    # meshes mostly block a bad edge for good; a small budget runs out.
    converged, outcomes = 0, set()
    for n in (20, 40):
        for seed in range(3):
            dev, _, _ = hull.random_sphere_development(n, seed=seed)
            base = mesh_of(dev)
            rng = np.random.default_rng(100 * n + seed)
            scrambled, _ = _scrambled(base, seed)
            for mesh, spread, budget in (
                (scrambled, 0.02, None),
                (scrambled, 0.05, None),
                (scrambled, 0.02, 5),
                (base, 0.5, None),
            ):
                q = rng.uniform(0.0, spread, base.n_vertices) * float(base.ell.max()) ** 2
                ref, work = mesh.copy(), mesh.copy()
                want = _outcome(oracles.weighted_delaunay, ref, q, budget)
                got = _outcome(weighted_delaunay, work, q, budget)
                outcomes.add(want)
                if isinstance(want, str):
                    assert got == want
                    continue
                assert isinstance(got, int) and got > 0
                validate_mesh(work)
                assert badness_scan(work, q)[1].max() <= BAD_TOL * max(1.0, float(q.max()))
                assert canonical_tesselation(work, q).digest == canonical_tesselation(ref, q).digest
                converged += 1
    assert converged >= 9
    assert {"bad", "flip"} <= outcomes  # blocked for good, budget exhausted
    assert any(isinstance(o, int) and o > 10 for o in outcomes)


def test_flip_budget_caps_the_flips_applied():
    # The budget is checked before a round fires: a pass that runs out
    # has applied at most max_flips flips, and one that fits converges.
    dev, _, _ = hull.random_sphere_development(20, seed=0)
    mesh, _ = _scrambled(mesh_of(dev), 0)
    q = np.ones(mesh.n_vertices)
    total = weighted_delaunay(mesh.copy(), q)
    assert total > 10
    for budget in range(total + 1):
        work = mesh.copy()
        applied = []
        flip = work.flip
        work.flip = lambda e: applied.append(flip(e))
        out = _outcome(weighted_delaunay, work, q, budget)
        assert len(applied) <= budget
        assert out == (total if budget == total else "flip")


def test_flips_of_a_round_share_no_face_and_their_theta_is_the_two_face_solve():
    dev, _, _ = hull.random_sphere_development(20, seed=0)
    mesh, _ = _scrambled(mesh_of(dev), 0)
    r = np.full(mesh.n_vertices, 10.0 * float(mesh.ell.max()))
    rounds = []

    def hook(m, e):
        faces = np.concatenate([e // 3, m.twin[e] // 3]).tolist()
        assert len(set(faces)) == len(faces)
        want = [oracles.edge_theta(m, r, *divmod(x, 3)) for x in e.tolist()]
        assert _edge_theta(m, r, e).tolist() == want
        rounds.append(len(e))

    flips = weighted_delaunay(mesh, r * r, on_flip=hook)
    assert sum(rounds) == flips and max(rounds) > 1


def test_batched_theta_is_the_two_face_solve_on_refined_rows(square_path):
    # At the flat limit every pyramid is nearly flat, its alt2 under 1e-8
    # of its squared scale, and the mirrored faces of the two sheets are
    # congruent rows of one batch.
    _, mesh, r = square_path.final
    e = mesh.edges()
    f, g = e // 3, mesh.twin[e] // 3
    pick, taken = [], set()
    for i, pair in enumerate(zip(f.tolist(), g.tolist())):
        if pair[0] != pair[1] and taken.isdisjoint(pair):
            taken.update(pair)
            pick.append(i)
    e = e[pick]
    faces = np.concatenate([f[pick], g[pick]])
    ell, rad = mesh.ell[faces], r[mesh.vert[faces]]
    scale = np.maximum((ell * ell).max(axis=1), (rad * rad).max(axis=1))
    assert np.all(kernels.face_pyramids(ell, rad)["alt2"] <= 1e-8 * scale)
    want = [oracles.edge_theta(mesh, r, *divmod(x, 3)) for x in e.tolist()]
    assert len(want) == 2 and _edge_theta(mesh, r, e).tolist() == want


def test_flip_reads_the_quad_frame_as_the_scalar_layout():
    # flip's convexity test and new diagonal come from kernels.QuadFrame;
    # the scalar layout is the reference, the diagonal bit for bit.
    meshes = [mesh_of(make()) for make in catalog.NAMED.values()]
    for n, seed in ((12, 0), (20, 1)):
        meshes.append(_scrambled(mesh_of(hull.random_sphere_development(n, seed=seed)[0]), seed)[0])
    flipped = refused = 0
    for mesh in meshes:
        for e in mesh.edges().tolist():
            f, s = divmod(e, 3)
            quad = develop_quad(mesh, f, s)
            movable = mesh.twin[e] // 3 != f and oracles.quad_is_strictly_convex(quad)
            try:
                new_len = mesh.copy().flip(e)
            except FlipError:
                assert not movable
                refused += 1
                continue
            assert movable and new_len == quad.diagonal
            flipped += 1
    assert flipped > 100 and refused > 10


def test_canonical_tesselation_start_independent(cube_metric):
    base = CornerMesh.from_metric(cube_metric)
    q = np.ones(8)
    digests = set()
    for seed in (0, 1, 2):
        mesh, flipped = _scrambled(base, seed)
        assert flipped > 0
        weighted_delaunay(mesh, q)
        digests.add(canonical_tesselation(mesh, q).digest)
    assert len(digests) == 1


def test_merge_regions_boundary_cycles(cube_metric):
    mesh = CornerMesh.from_metric(cube_metric)
    q = np.ones(8)
    e, vals = badness_scan(mesh, q)
    flat = np.zeros(3 * mesh.n_faces, dtype=bool)
    flat[e] = np.abs(vals) <= 1e-9
    regions = merge_regions(mesh, flat.reshape(-1, 3))
    assert len(regions) == 6
    for reg in regions:
        assert len(reg.faces) == 2  # two triangles per square
        assert len(reg.cycles) == 1
        assert len(reg.cycles[0]) == 4  # square boundary


def test_merge_regions_reads_either_slot_of_an_edge():
    # a random set of edges of a random hull's start mesh, marked by their
    # canonical slots, by their twins or by both: the same regions, whose
    # faces are the union-find's classes in order of their smallest face
    mesh = CornerMesh.from_metric(build_metric(hull.random_sphere_development(40, seed=5)[0]))
    e = mesh.edges()
    o = mesh.twin[e]
    f, g = e // 3, o // 3
    rng = np.random.default_rng(5)
    for share in (0.0, 0.3, 0.6, 0.9, 1.0):
        pick = rng.random(e.size) < share
        one, twin = np.zeros((2, mesh.n_faces, 3), dtype=bool)
        one.ravel()[e[pick]] = True
        twin.ravel()[o[pick]] = True
        regions = merge_regions(mesh, one)
        assert merge_regions(mesh, twin) == regions
        assert merge_regions(mesh, one | twin) == regions
        uf = oracles.UnionFind(mesh.n_faces)
        for a, b in zip(f[pick].tolist(), g[pick].tolist()):
            uf.union(a, b)
        label = uf.labels()
        assert [r.faces for r in regions] == [
            tuple(np.flatnonzero(label == k).tolist()) for k in range(label.max() + 1)
        ]
        # each boundary slot lies in one cycle of its own face's region
        walked = [slot for r in regions for c in r.cycles for slot in c]
        assert sorted(walked) == np.flatnonzero(~(one | twin)).tolist()
        assert all(slot // 3 in r.faces for r in regions for c in r.cycles for slot in c)


# -- the radius-independent cache -------------------------------------------


def _fresh(mesh):
    """An uncached mesh built from copies of the three arrays."""
    return CornerMesh(mesh.vert.copy(), mesh.ell.copy(), mesh.twin.copy())


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype.kind == "f" and not np.array_equal(np.signbit(a), np.signbit(b)):
        return False
    return a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)


def _assert_cache_matches_fresh(mesh, r, order):
    """badness_scan, the pyramids and the band Jacobian on ``mesh``, with
    whatever its cache holds, equal those on an uncached copy, bit for
    bit."""
    fresh = _fresh(mesh)
    q = r * r
    e, vals = badness_scan(mesh, q)
    e0, vals0 = badness_scan(fresh, q)
    assert _same_bits(e, e0) and _same_bits(vals, vals0)
    P, P0 = GeneralizedPolytope(mesh, r), GeneralizedPolytope(fresh, r)
    for name, value in vars(P.pyramids).items():
        assert _same_bits(value, getattr(P0.pyramids, name)), name
    rep, rep0 = P.curvature_report(), P0.curvature_report()
    assert _same_bits(rep.kappa, rep0.kappa) and _same_bits(rep.theta, rep0.theta)
    J, J0 = jacobian.assemble(P, order), jacobian.assemble(P0, order)
    assert J.k == J0.k and _same_bits(J.ab, J0.ab)
    assert _same_bits(J.cells, J0.cells) and _same_bits(J.cols, J0.cols)


@pytest.mark.parametrize(
    "dev",
    [catalog.twisted_double_polygon(12), hull.random_sphere_development(20, seed=5)[0]],
    ids=["twisted12", "hull20-seed5"],
)
def test_cached_results_match_an_uncached_mesh_along_the_path(dev):
    # The twisted 12-gon flips in its initial Delaunay pass, the hull
    # along the path; every accepted state is checked, the start too.
    seen = []

    def check(state):
        _assert_cache_matches_fresh(state.mesh, state.r, state.order)
        seen.append(state.flips)

    result = solve_path(build_metric(dev), progress=check)
    assert seen[0] > 0 or result.events
    assert len(seen) == result.state.steps_accepted + 1


def test_flipping_a_copy_leaves_the_original_cache_alone(cube_metric):
    mesh = CornerMesh.from_metric(cube_metric)
    r = np.full(8, 4.0)  # tall enough for a pyramid over every flipped face
    order = mesh.cached(jacobian.band_order)
    _assert_cache_matches_fresh(mesh, r, order)  # fills the cache
    work = mesh.copy()
    flipped = 0
    for e in mesh.edges():
        try:
            work.flip(e)
        except FlipError:
            continue
        flipped += 1
        _assert_cache_matches_fresh(mesh, r, order)
        _assert_cache_matches_fresh(work, r, order)
    assert flipped >= 3


def test_cached_arrays_are_read_only_and_own_their_memory():
    mesh = mesh_of(catalog.twisted_double_polygon(6))
    r = np.full(mesh.n_vertices, 4.0)
    P = GeneralizedPolytope(mesh, r)
    badness_scan(mesh, r * r)
    P.curvature_report()
    jacobian.assemble(P, mesh.cached(jacobian.band_order))
    arrays = []

    def collect(value):
        if isinstance(value, np.ndarray):
            arrays.append(value)
        elif isinstance(value, tuple):
            for item in value:
                collect(item)

    for value in mesh._cache.values():
        collect(value)
    assert len(arrays) >= 20
    for a in arrays:
        assert a.base is None
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def test_flip_loop_and_flip_hook_leave_the_cache_empty():
    # The rechecks after the first round and the solver's flip hook read
    # the mesh directly: filling the cache there would rebuild it once per
    # round.
    dev, _, _ = hull.random_sphere_development(20, seed=0)
    mesh, _ = _scrambled(mesh_of(dev), 0)
    r = np.full(mesh.n_vertices, 10.0 * float(mesh.ell.max()))
    thetas = []

    def hook(m, e):
        thetas.extend(_edge_theta(m, r, e))

    flips = weighted_delaunay(mesh, r * r, on_flip=hook)
    assert flips > 5 and len(thetas) == flips
    assert mesh._cache == {}
