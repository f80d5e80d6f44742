"""The batched NumPy kernels against loops, closed forms and a 50-digit
pyramid solve, on random batches, on crafted degenerate rows and on the
nearly flat rows of flat limits."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import mp_pyramid
from polyforge import build_metric, catalog, hull, kernels
from polyforge.errors import PyramidError, TriangleError
from polyforge.polytope import FOLD_TOL, GeneralizedPolytope
from polyforge.solver import solve_path


def _pyramid_batch(rng, n):
    """Random well-posed (ell, rad, altitude) batches from actual pyramids."""
    base = np.zeros((n, 3, 2))
    base[:, 1, 0] = rng.uniform(0.7, 2.5, n)
    base[:, 2, 0] = rng.uniform(-1.0, 3.0, n)
    base[:, 2, 1] = rng.uniform(0.4, 2.5, n)
    apex = np.stack(
        [
            rng.uniform(-1.0, 3.0, n),
            rng.uniform(-1.0, 3.0, n),
            rng.uniform(0.3, 2.0, n),
        ],
        axis=1,
    )
    ell = np.empty((n, 3))
    for s in range(3):
        ell[:, s] = np.linalg.norm(base[:, (s + 1) % 3] - base[:, (s + 2) % 3], axis=1)
    rad = np.empty((n, 3))
    for c in range(3):
        diff = apex[:, :2] - base[:, c]
        rad[:, c] = np.sqrt(np.sum(diff * diff, axis=1) + apex[:, 2] ** 2)
    return ell, rad, apex[:, 2]


def test_tri_angles_nan_rows_pi_sum_and_law_of_cosines():
    rng = np.random.default_rng(7)
    a = rng.uniform(0.5, 2.0, 300)
    b = rng.uniform(0.5, 2.0, 300)
    # Mix of valid triangles and rows violating the triangle inequality.
    c = np.where(rng.random(300) < 0.8, rng.uniform(0.2, 1.0, 300) * (a + b), a + b + 0.5)
    ell = np.stack([a, b, c], axis=1)
    out = kernels.tri_angles(ell)
    invalid = (a >= b + c) | (b >= c + a) | (c >= a + b)
    assert invalid.any() and not invalid.all()
    assert np.array_equal(np.isnan(out), np.repeat(invalid[:, None], 3, axis=1))
    # Valid rows sum to pi; spot-check against the law of cosines.
    full = ~invalid
    np.testing.assert_allclose(out[full].sum(axis=1), math.pi, atol=1e-10)
    i = np.flatnonzero(full)[0]
    expect = math.acos((b[i] ** 2 + c[i] ** 2 - a[i] ** 2) / (2 * b[i] * c[i]))
    assert out[i, 0] == pytest.approx(expect, abs=1e-12)
    # Exact rows: near-degenerate, equilateral and 3-4-5; then a flat
    # triangle, a negative side and a zero side, which have no angles.
    thin, equi, right, *invalid = kernels.tri_angles(
        [[1.0, 1.0, 1.9], [2.5, 2.5, 2.5], [5.0, 4.0, 3.0],
         [1.0, 1.0, 2.0], [1.0, -1.0, 1.0], [0.0, 1.0, 1.0]]
    )
    assert abs(thin.sum() - math.pi) <= 1e-12
    np.testing.assert_allclose(equi, math.pi / 3, rtol=0, atol=1e-15)
    assert right[0] == pytest.approx(math.pi / 2, abs=1e-14)
    assert math.sin(right[1]) == pytest.approx(4.0 / 5.0, abs=1e-14)
    assert np.isnan(invalid).all()


def test_face_pyramids_solve_random_pyramids():
    rng = np.random.default_rng(11)
    ell, rad, alt = _pyramid_batch(rng, 400)
    out = kernels.face_pyramids(ell, rad)
    assert np.all(out["ok"])
    np.testing.assert_allclose(out["alt2"], alt * alt, rtol=1e-8)


def test_face_pyramids_match_high_precision_solve():
    rng = np.random.default_rng(13)
    ell, rad, _ = _pyramid_batch(rng, 60)
    out = kernels.face_pyramids(ell, rad)
    for f in range(len(ell)):
        row = mp_pyramid(ell[f], rad[f])
        assert out["alt2"][f] == pytest.approx(row["alt2"], rel=1e-12)
        for key in ("alpha", "omega"):
            np.testing.assert_allclose(out[key][f], row[key], rtol=0, atol=1e-12)


def test_tall_pyramids_match_high_precision_solve():
    # Apex distances from about 1 to 1e3 times the longest side, as on
    # the 1000:1 disc: the lateral faces stand nearly upright, and the
    # dihedrals stay within the bound of the pyramids above.
    rng = np.random.default_rng(37)
    n = 120
    base = np.zeros((n, 3, 2))
    base[:, 1, 0] = rng.uniform(0.7, 2.5, n)
    base[:, 2] = rng.uniform([-1.0, 0.4], [3.0, 2.5], (n, 2))
    foot = rng.uniform(-1.0, 3.0, (n, 2))
    ell = np.empty((n, 3))
    for s in range(3):
        ell[:, s] = np.linalg.norm(base[:, (s + 1) % 3] - base[:, (s + 2) % 3], axis=1)
    height = 10.0 ** rng.uniform(0.0, 3.0, n) * ell.max(axis=1)
    rad = np.empty((n, 3))
    for c in range(3):
        rad[:, c] = np.hypot(np.linalg.norm(foot - base[:, c], axis=1), height)
    ratio = rad.max(axis=1) / ell.max(axis=1)
    assert ratio.min() < 3.0 and ratio.max() > 500.0
    out = kernels.face_pyramids(ell, rad)
    assert np.all(out["ok"])
    for f in range(n):
        row = mp_pyramid(ell[f], rad[f])
        assert out["alt2"][f] == pytest.approx(row["alt2"], rel=1e-12)
        for key in ("alpha", "omega"):
            np.testing.assert_allclose(out[key][f], row[key], rtol=0, atol=1e-12)


_CIRC = 1.0 / math.sqrt(3.0)  # circumradius of the unit equilateral base
_DEGENERATE_ELL = np.ones((4, 3))
_DEGENERATE_RAD = np.array(
    [
        [1.0, 1.0, 1.0],  # healthy
        [math.sqrt(_CIRC**2 + 1e-10)] * 3,  # apex grazing the base plane
        [0.45, 0.45, 0.45],  # apex strictly below any pyramid
        [math.sqrt(_CIRC**2 - 1e-10)] * 3,  # just below the base plane
    ]
)


def test_face_pyramid_flags_on_degenerate_rows():
    # The sign of alt2 in doubles decides every row: alt2 = 1e-10 is a
    # pyramid, -1e-10 is none.
    out = kernels.face_pyramids(_DEGENERATE_ELL, _DEGENERATE_RAD)
    assert out["ok"].tolist() == [True, True, False, False]
    assert out["alt2"][0] == pytest.approx(1.0 - _CIRC**2, rel=1e-12)
    assert out["alt2"][1] == pytest.approx(1e-10, rel=1e-5)
    assert out["alt2"][3] == pytest.approx(-1e-10, rel=1e-5)
    # A base with y2^2 <= 0 raises, wherever it sits in the batch: a
    # collinear base, either way round, and a zero side.
    for base in ([1.0, 1.0, 2.0], [2.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0]):
        ell = np.concatenate([_DEGENERATE_ELL, [base], _DEGENERATE_ELL])
        rad = np.concatenate([_DEGENERATE_RAD, [[1.5] * 3], _DEGENERATE_RAD])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TriangleError, match="^degenerate base triangle$"):
                kernels.face_pyramids(ell, rad)
    # Thin bases whose y2^2 stays positive in doubles are solved; their
    # circumradii are of order 1e7, so the apex must stand further off.
    thin = np.array([[1.0, 1.0, 2.0 - 2.0**-52], [1.0, 0.5, 0.5 + 2.0**-52]])
    assert np.all(kernels.pyramid_base(thin).y2sq > 0.0)
    assert np.all(kernels.face_pyramids(thin, np.full((2, 3), 1e10))["ok"])


def _quad_batch(rng, n):
    d = rng.uniform(0.5, 2.0, n)
    xk = rng.uniform(0.1, 0.9, n) * d
    yk = rng.uniform(0.1, 1.5, n)
    xl = rng.uniform(0.1, 0.9, n) * d
    yl = -rng.uniform(0.1, 1.5, n)
    l_ik = np.hypot(xk, yk)
    l_jk = np.hypot(d - xk, yk)
    l_il = np.hypot(xl, yl)
    l_jl = np.hypot(d - xl, yl)
    return d, l_ik, l_jk, l_il, l_jl


def test_edge_badness_nan_on_unresolvable_rows():
    rng = np.random.default_rng(23)
    n = 500
    d, l_ik, l_jk, l_il, l_jl = _quad_batch(rng, n)
    # Poison a handful of rows: k collapses onto the axis extension, which
    # makes the quadrilateral unresolvable in the fast path.
    dead = rng.choice(n, 12, replace=False)
    l_ik[dead] = 0.3
    l_jk[dead] = d[dead] + 5.0
    q = rng.uniform(0.0, 1.0, (4, n))
    out = kernels.edge_badness(kernels.quad_frame(d, l_ik, l_jk, l_il, l_jl), *q)
    assert np.isnan(out[dead]).all()
    assert (~np.isnan(out)).sum() == n - len(dead)


def _same_bits(a, b):
    """Equal, NaN for NaN, with equal signs of zero."""
    if a.dtype.kind == "f" and not np.array_equal(np.signbit(a), np.signbit(b)):
        return False
    return a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)


_SPECIAL = np.array(
    [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e-300, 1e300, 5e-324]
)


def _poisoned(rng, x, frac=0.15, special=_SPECIAL):
    """``x`` with a share of its entries replaced by ``special`` values:
    by default NaNs of both signs, infinities, signed zeros, a negative
    value and extreme magnitudes."""
    x = x.copy()
    hit = rng.random(x.shape) < frac
    x[hit] = rng.choice(special, hit.sum())
    return x


def _outcome(solve, ell, rad):
    """The arrays a kernel returns, or its exception as (type, text)."""
    try:
        return solve(ell, rad)
    except (PyramidError, TriangleError) as exc:
        return type(exc), str(exc)


def _assert_same_pyramids(ell, rad):
    """The kernel, with and without a kept base, against the one-shot
    reference: every output bit for bit on every row, or the same error.
    Returns the reference's outcome."""
    with np.errstate(all="ignore"):
        want = _outcome(oracles.face_pyramids, ell, rad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = _outcome(kernels.face_pyramids, ell, rad)
        kept = _outcome(lambda e, r: kernels.face_pyramids(e, r, kernels.pyramid_base(e)), ell, rad)
    if isinstance(want, tuple):
        assert kept == alone == want
        return want
    assert set(kept) == set(want) == set(alone) == {"ok", "alt2", "alpha", "omega"}
    for key in want:
        assert _same_bits(kept[key], want[key]) and _same_bits(alone[key], want[key]), key
    return want


def test_split_face_pyramids_match_the_one_shot_kernel():
    rng = np.random.default_rng(29)
    ell, rad, _ = _pyramid_batch(rng, 300)
    nan, inf = math.nan, math.inf
    # rows of thin, tiny and zero sides, and of lengths and radii that are
    # not finite: each ends the batch in the same error, or in the same
    # bits, as the reference gives
    odd_ell = np.array(
        [[1.0, 1e-9, 1.0], [1.0, 1.0, 1e-300], [1.0, 1.0, 0.0], [nan, 1.0, 1.0],
         [1.0, inf, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, inf]]
    )
    odd_rad = np.array(
        [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0],
         [1.0, 1.0, 1.0], [nan, 1.0, 1.0], [1.0, inf, 1.0], [inf, inf, inf]]
    )
    ell = np.concatenate([ell, _DEGENERATE_ELL])
    rad = np.concatenate([rad, _DEGENERATE_RAD])
    want = _assert_same_pyramids(ell, rad)
    assert {False, True} == set(want["ok"].tolist())
    errors = set()
    for row in range(len(odd_ell)):
        got = _assert_same_pyramids(np.vstack([ell, odd_ell[row]]), np.vstack([rad, odd_rad[row]]))
        errors.add(got[0] if isinstance(got, tuple) else None)
    assert errors == {None, PyramidError, TriangleError}
    # Batches of every size the pipeline meets, with poisoned entries:
    # NaNs of both signs, infinities, signed zeros, a negative value and
    # extreme magnitudes in the lengths and radii, which mostly raise, and
    # the finite ones in the radii alone, which never do.
    finite = np.array([0.0, -0.0, -1.0, 1e-300, 1e300, 5e-324])
    raised = 0
    for n in rng.integers(1, 100, 40):
        ell, rad, _ = _pyramid_batch(rng, n)
        got = _assert_same_pyramids(_poisoned(rng, ell), _poisoned(rng, rad))
        raised += isinstance(got, tuple)
        _assert_same_pyramids(ell, _poisoned(rng, rad, special=finite))
    assert 0 < raised < 40


def test_face_pyramids_match_the_one_shot_kernel_along_solve_paths(monkeypatch):
    flat = [catalog.doubly_covered_triangle(3.0, 4.0, 5.0)]
    flat += [catalog.doubly_covered_polygon(n) for n in (8, 12, 16, 24, 32, 48, 64)]
    solid = [
        catalog.tetrahedron(),
        catalog.cube(),
        catalog.twisted_double_polygon(12),
        catalog.twisted_double_polygon(24),
    ]
    solid += [hull.random_sphere_development(n, seed=1)[0] for n in (20, 40, 80, 160)]
    calls = []
    solve = kernels.face_pyramids

    def capture(ell, rad, base=None):
        calls[-1].append((ell.copy(), rad.copy()))
        return solve(ell, rad, base)

    monkeypatch.setattr(kernels, "face_pyramids", capture)
    for dev in flat + solid:
        calls.append([])
        solve_path(build_metric(dev))
    monkeypatch.undo()
    # Coverage per body, not totals of solver work, which a cheaper path
    # would lower: every body calls the kernel, and every flat body
    # meets near-flat rows.
    for k, body_calls in enumerate(calls):
        assert body_calls, k
        near_flat = 0
        for ell, rad in body_calls:
            want = _assert_same_pyramids(ell, rad)
            near_flat += np.count_nonzero(want["ok"] & (want["alt2"] <= 1e-8 * _scale(ell, rad)))
        assert near_flat > 0 or k >= len(flat), k


def _scale(ell, rad):
    """The largest squared input of each row."""
    return np.maximum((ell * ell).max(axis=1), (rad * rad).max(axis=1))


def test_near_flat_dihedrals_stay_inside_the_fold_tolerance(monkeypatch):
    # The rows that the flat paths meet with alt2 <= 1e-8 of their squared
    # scale, where the doubles lose the most: their dihedrals must lie
    # within ``bound`` of the 50-digit pyramid, a hundredth of FOLD_TOL, so
    # that the noise cannot move a fold's classification.  They lie within
    # 1.8e-7 (the 24-gon), 2.2e-8 (the 12-gon), 1.6e-9 (the 8-gon), 1.1e-9
    # (the 16-gon), 2.7e-10 (the square) and 1.9e-10 (the 3-4-5 triangle):
    # on these rows the error is that of the altitude, and the former
    # frame formula (``oracles.frame_face_pyramids``) errs as much, which
    # the closed form may not exceed by more than a factor of 2.
    bound = FOLD_TOL / 100
    rows = {}
    solve = kernels.face_pyramids

    def capture(ell, rad, base=None):
        out = solve(ell, rad, base)
        near = out["ok"] & (out["alt2"] <= 1e-8 * _scale(ell, rad))
        for f in np.flatnonzero(near):
            rows[tuple(ell[f]) + tuple(rad[f])] = (out["alpha"][f], out["omega"][f])
        return out

    monkeypatch.setattr(kernels, "face_pyramids", capture)
    devs = [catalog.doubly_covered_triangle(3.0, 4.0, 5.0)]
    devs += [catalog.doubly_covered_polygon(n) for n in (4, 8, 12, 16, 24)]
    for dev in devs:
        solve_path(build_metric(dev))
    monkeypatch.undo()
    assert len(rows) > 250
    keys = np.array(list(rows))
    frame = oracles.frame_face_pyramids(keys[:, :3], keys[:, 3:])
    worst = worst_frame = 0.0
    for f, (key, (alpha, omega)) in enumerate(rows.items()):
        want = mp_pyramid(key[:3], key[3:])
        worst = max(worst, np.abs(alpha - want["alpha"]).max(), np.abs(omega - want["omega"]).max())
        worst_frame = max(
            worst_frame,
            np.abs(frame["alpha"][f] - want["alpha"]).max(),
            np.abs(frame["omega"][f] - want["omega"]).max(),
        )
    assert 0.0 < worst <= bound
    assert worst <= 2.0 * worst_frame


def test_infinite_radii_flag_the_row_without_warnings():
    # An input that is not finite raises before any row is solved, and
    # without a warning.
    inf, nan = math.inf, math.nan
    ones = [1.0, 1.0, 1.0]
    rows = [
        (ones, [inf, inf, 1.0]),
        (ones, [nan, 0.6, 0.6]),
        ([nan, 1.0, 1.0], [0.6, 0.6, 0.6]),
        ([nan] * 3, [nan] * 3),
        (ones, [inf, 0.6, 0.6]),
        ([inf, 1.0, 1.0], [0.6, 0.6, 0.6]),
        ([1.0, 1.0, inf], [0.6, 0.6, 0.6]),
        (ones, [1.0, 1.0, -inf]),
    ]
    mesh = oracles.mesh_of(catalog.tetrahedron())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ell, rad in rows:
            with pytest.raises(PyramidError, match="^non-finite input"):
                kernels.face_pyramids(np.array([ones, ell]), np.array([[0.6] * 3, rad]))
        with pytest.raises(PyramidError, match="^non-finite input"):
            GeneralizedPolytope(mesh, [inf, inf, 1.0, 1.0])


def test_split_edge_badness_matches_the_one_shot_kernel():
    rng = np.random.default_rng(31)
    n = 400
    lengths = list(_quad_batch(rng, n))
    q = rng.uniform(0.0, 1.0, (4, n))
    d, l_ik, l_jk = lengths[:3]
    # flat quads: k on the axis extension, and on the diagonal itself
    l_ik[:6], l_jk[:6] = 0.3, d[:6] + 5.0
    l_jk[6:9] = d[6:9] - l_ik[6:9]
    nan, inf = math.nan, math.inf
    d[9], d[10], d[11] = 0.0, nan, inf
    lengths[3][12], lengths[4][13] = inf, nan
    q[0, 14], q[1, 15], q[2, 16], q[3, 17], q[3, 18] = nan, inf, -inf, inf, nan
    with np.errstate(all="ignore"):
        want = oracles.edge_badness(*lengths, *q)
        got = kernels.edge_badness(kernels.quad_frame(*lengths), *q)
    assert _same_bits(got, want)
    assert np.isnan(want[:19]).sum() >= 15 and not np.isnan(want[19:]).any()


def test_scatter_add_matches_dense_loop():
    rng = np.random.default_rng(3)
    n = 49
    index = rng.integers(0, n, 60)
    vals = rng.normal(size=60)
    out = kernels.scatter_add(n, index, vals)
    dense = np.zeros(n)
    for i, v in zip(index, vals):
        dense[i] += v
    np.testing.assert_allclose(out, dense, atol=1e-14)


@st.composite
def _graphs(draw):
    """(n, a, b): n <= 60 nodes and up to 80 edges a[m] -- b[m], loops and
    repeated edges included; nodes on no edge stay isolated."""
    n = draw(st.integers(0, 60))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=80)) if n else []
    a = np.array([i for i, _ in edges], dtype=np.int64)
    b = np.array([j for _, j in edges], dtype=np.int64)
    return n, a, b


def _no_edges(n):
    return n, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(_graphs())
@example(_no_edges(0))
@example(_no_edges(7))  # each node its own component: arange(7)
@example((4, np.array([2, 2, 0]), np.array([2, 2, 0])))  # loops only
@example((6, np.array([5, 1, 5, 3]), np.array([1, 5, 1, 5])))  # repeated edges, 0, 2, 4 alone
def test_components_match_union_find(graph):
    # one label per node, components numbered by their smallest node, as
    # the per-node union-find that keeps the smallest member labels them
    n, a, b = graph
    uf = oracles.UnionFind(n)
    for i, j in zip(a.tolist(), b.tolist()):
        uf.union(i, j)
    got = kernels.components(n, a, b)
    assert got.shape == (n,)
    assert np.array_equal(got, uf.labels())
