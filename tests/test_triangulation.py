import json
import math

import numpy as np
import pytest

import oracles
from oracles import canonical_tesselation, cone_angles, ext_value, mesh_of, validate_mesh
from polyforge import build_metric, catalog, hull, jacobian
from polyforge.errors import FlipError, InadmissibleWeightsError, TriangleError
from polyforge.polytope import GeneralizedPolytope
from polyforge.solver import SolverOptions, _edge_theta, solve_path
from polyforge.triangulation import (
    BAD_TOL,
    CornerMesh,
    badness,
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
    validate_mesh(again)


# -- quad development and flips ---------------------------------------------


def test_rhombus_flip_diagonal():
    # two unit equilateral triangles: flipping the shared side of length 1
    # yields the long rhombus diagonal sqrt(3)
    mesh = mesh_of(catalog.doubly_covered_triangle(1.0, 1.0, 1.0))
    quad = mesh.develop_quad(0, 0)
    assert quad.diagonal == pytest.approx(math.sqrt(3.0), rel=1e-14)
    new_len = mesh.flip(0, 0)
    assert new_len == pytest.approx(math.sqrt(3.0), rel=1e-14)
    validate_mesh(mesh)


def test_edges_match_corner_walk():
    # reference: one handle per edge, the side that precedes its twin
    meshes = [mesh_of(make()) for make in catalog.NAMED.values()]
    twisted = mesh_of(catalog.twisted_double_polygon(6))
    weighted_delaunay(twisted, np.ones(twisted.n_vertices))
    for mesh in meshes + [twisted]:
        walk = [
            (f, s)
            for f in range(mesh.n_faces)
            for s in range(3)
            if (f, s) <= mesh.neighbor(f, s)
        ]
        f, s = mesh.edges()
        assert list(zip(f.tolist(), s.tolist())) == walk
        assert len(f) == len(s) == mesh.n_edges
        assert f.dtype.kind == s.dtype.kind == "i"


def test_flip_preserves_cone_angles():
    mesh = mesh_of(catalog.cube())
    before = cone_angles(mesh)
    flipped = 0
    for f, s in zip(*mesh.edges()):
        work = mesh.copy()
        try:
            work.flip(f, s)
        except FlipError:
            continue
        validate_mesh(work)
        np.testing.assert_allclose(cone_angles(work), before, atol=1e-10)
        flipped += 1
    assert flipped > 0


def test_flip_twice_restores_lengths():
    mesh = mesh_of(catalog.cube())
    orig = np.sort(mesh.ell.ravel())
    mesh.flip(0, 0)
    mesh.flip(0, 0)  # the new diagonal is side 0 of the rewritten face
    validate_mesh(mesh)
    np.testing.assert_allclose(np.sort(mesh.ell.ravel()), orig, atol=1e-12)


def test_doubly_covered_develops_as_kite():
    mesh = mesh_of(catalog.doubly_covered_triangle(1.0, 1.0, 1.9))
    quad = mesh.develop_quad(0, 0)
    # the two copies mirror each other across the shared side
    np.testing.assert_allclose(quad.pk[1], -quad.pl[1], atol=1e-14)
    np.testing.assert_allclose(quad.pk[0], quad.pl[0], atol=1e-14)


def test_flip_obtuse_double_creates_loop():
    # flipping the long side of a doubly covered obtuse triangle makes a
    # geodesic loop based at the opposite vertex
    mesh = mesh_of(catalog.doubly_covered_triangle(1.9, 1.0, 1.0))
    assert mesh.ell[0, 0] == pytest.approx(1.9)
    mesh.flip(0, 0)
    validate_mesh(mesh)
    i, j = mesh.edge_endpoints(0, 0)
    assert i == j  # loop
    # the loop edge still develops (the face is laid out twice)
    quad = mesh.develop_quad(0, 0)
    assert np.isfinite(quad.pl).all()
    # ... and flipping it back restores the original edge length
    assert mesh.flip(0, 0) == pytest.approx(1.9, rel=1e-12)


def test_flip_refuses_same_face():
    mesh = mesh_of(catalog.doubly_covered_triangle(1.9, 1.0, 1.0))
    mesh.flip(0, 0)
    # the two short sides of each new face are glued to each other
    same_face = [
        (f, s)
        for f in range(2)
        for s in range(3)
        if mesh.neighbor(f, s)[0] == f
    ]
    assert same_face
    with pytest.raises(FlipError):
        mesh.flip(*same_face[0])


def test_flip_refuses_nonconvex_quad():
    # the quad around a short side of a doubly covered obtuse triangle is
    # a nonconvex kite (reflex angle at the obtuse corner)
    mesh = mesh_of(catalog.doubly_covered_triangle(1.9, 1.0, 1.0))
    with pytest.raises(FlipError):
        mesh.flip(0, 1)


def test_randomized_flips_keep_metric():
    rng = np.random.default_rng(4)
    mesh = mesh_of(catalog.cube())
    angles = cone_angles(mesh)
    for _ in range(200):
        f = int(rng.integers(mesh.n_faces))
        s = int(rng.integers(3))
        try:
            mesh.flip(f, s)
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
        (fs, ss), vals = badness_scan(mesh, q)
        for f, s, v in zip(fs, ss, vals):
            quad = mesh.develop_quad(f, s)
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
    quad = mesh.develop_quad(0, 0)
    assert quad.diagonal == pytest.approx(2.0 * w * h / d, rel=1e-12)
    one = np.array([0])  # edge (0, 0) alone, as the flip loop rechecks it
    q = np.zeros(mesh.n_vertices)
    assert badness(mesh, q, one, one)[0] <= BAD_TOL
    q[mesh.vert[0, 0]] = 1.0  # the right-angle corner (= both far corners)
    assert badness(mesh, q, one, one)[0] > BAD_TOL


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
    quad = mesh.develop_quad(f, s)
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
    # (the new diagonal is side 0 of the rewritten face f)
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
                f, before = pending.pop()
                after = _quad_extension_probe(mesh, q, f, 0)
                assert after >= before - 1e-12 * scale

            def on_flip(m, f, s):
                if pending:
                    check_pending()
                pending.append((f, _quad_extension_probe(m, q, f, s)))

            try:
                flips += weighted_delaunay(mesh, q, on_flip=on_flip)
            except InadmissibleWeightsError:
                continue  # no weighted Delaunay triangulation for these weights
            if pending:
                check_pending()
            admissible += 1
    assert admissible >= 6 and flips >= 20


def test_flip_undone_by_delaunay(cube_metric):
    # flipping a strictly good edge leaves a strictly bad diagonal, and
    # the flip pass restores the same tesselation
    q = np.ones(8)
    mesh = CornerMesh.from_metric(cube_metric)
    want = canonical_tesselation(mesh, q).digest
    for f, s in zip(*mesh.edges()):
        work = mesh.copy()
        try:
            work.flip(f, s)
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
            work.flip(f, s)
            done += 1
        except FlipError:
            continue
    validate_mesh(work)
    return work, done


def _flip_trace(flip_loop, mesh, q, **kw):
    """What a flip loop did: its flip count or InadmissibleWeightsError
    message, every on_flip call with the mesh it saw, and the final mesh."""
    hooks = []

    def on_flip(m, f, s):
        hooks.append((f, s, m.to_json()))

    try:
        out = flip_loop(mesh, q, on_flip=on_flip, **kw)
    except InadmissibleWeightsError as exc:
        out = str(exc)
    return out, hooks, mesh.to_json()


def test_flip_loop_matches_the_recheck_every_edge_reference():
    # The loop takes an edge's verdict from the initial scan until a flip
    # rewrites one of its faces; the reference rechecks every popped edge.
    # Scrambled meshes need many flips; random weights on the hulls' own
    # meshes mostly block a bad edge for good; a small budget runs out.
    flips, outcomes = 0, set()
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
                want = _flip_trace(oracles.weighted_delaunay, mesh.copy(), q, max_flips=budget)
                got = _flip_trace(weighted_delaunay, mesh.copy(), q, max_flips=budget)
                assert got == want
                flips += len(want[1])
                outcomes.add(want[0] if isinstance(want[0], int) else want[0].split()[0])
    assert flips >= 300
    assert {"bad", "flip"} <= outcomes  # blocked for good, budget exhausted
    assert any(isinstance(o, int) and o > 10 for o in outcomes)


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
    (f, s), vals = badness_scan(mesh, q)
    flat = np.abs(vals) <= 1e-9
    regions = merge_regions(mesh, zip(f[flat], s[flat]))
    assert len(regions) == 6
    for reg in regions:
        assert len(reg.faces) == 2  # two triangles per square
        assert len(reg.cycles) == 1
        assert len(reg.cycles[0]) == 4  # square boundary


# -- the radius-independent cache -------------------------------------------


def _fresh(mesh):
    """An uncached mesh built from copies of the four arrays."""
    return CornerMesh(mesh.vert.copy(), mesh.ell.copy(), mesh.adj_face.copy(), mesh.adj_side.copy())


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
    (f, s), vals = badness_scan(mesh, q)
    (f0, s0), vals0 = badness_scan(fresh, q)
    assert _same_bits(f, f0) and _same_bits(s, s0) and _same_bits(vals, vals0)
    P, P0 = GeneralizedPolytope(mesh, r), GeneralizedPolytope(fresh, r)
    for name, value in vars(P.pyramids).items():
        assert _same_bits(value, getattr(P0.pyramids, name)), name
    rep, rep0 = P.curvature_report(), P0.curvature_report()
    assert _same_bits(rep.kappa, rep0.kappa) and _same_bits(rep.theta, rep0.theta)
    J, J0 = jacobian.assemble(P, order), jacobian.assemble(P0, order)
    assert J.k == J0.k and _same_bits(J.ab, J0.ab)


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

    result = solve_path(build_metric(dev), SolverOptions(progress=check))
    assert seen[0] > 0 or result.events
    assert len(seen) == result.state.steps_accepted + 1


def test_flipping_a_copy_leaves_the_original_cache_alone(cube_metric):
    mesh = CornerMesh.from_metric(cube_metric)
    r = np.full(8, 4.0)  # tall enough for a pyramid over every flipped face
    order = mesh.cached(jacobian.band_order)
    _assert_cache_matches_fresh(mesh, r, order)  # fills the cache
    work = mesh.copy()
    flipped = 0
    for f, s in zip(*mesh.edges()):
        try:
            work.flip(f, s)
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
    # The rechecks between flips and the solver's flip hook read the mesh
    # directly: filling the cache there would rebuild it once per flip.
    dev, _, _ = hull.random_sphere_development(20, seed=0)
    mesh, _ = _scrambled(mesh_of(dev), 0)
    r = np.full(mesh.n_vertices, 10.0 * float(mesh.ell.max()))
    thetas = []

    def hook(m, f, s):
        thetas.append(_edge_theta(m, r, f, s))

    flips = weighted_delaunay(mesh, r * r, on_flip=hook)
    assert flips > 5 and len(thetas) == flips
    assert mesh._cache == {}
