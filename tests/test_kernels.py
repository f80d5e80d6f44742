"""The batched NumPy kernels against loops, closed forms and a 50-digit
pyramid solve, on random batches and on crafted degenerate rows."""

import math
import warnings

import numpy as np
import pytest

import oracles
from mp_refine import _refine_pyramid
from polyforge import build_metric, catalog, hull, kernels
from polyforge.errors import PyramidError
from polyforge.polytope import GeneralizedPolytope
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
    assert np.all(out["ok"] == 1)
    np.testing.assert_allclose(out["alt2"], alt * alt, rtol=1e-8)


def test_face_pyramids_match_high_precision_solve():
    rng = np.random.default_rng(13)
    ell, rad, _ = _pyramid_batch(rng, 60)
    out = kernels.face_pyramids(ell, rad)
    for f in range(len(ell)):
        row = _refine_pyramid(ell[f], rad[f])
        assert out["alt2"][f] == pytest.approx(row["alt2"], rel=1e-12)
        for key in ("rho_t", "rho_h", "phi", "alpha", "omega"):
            np.testing.assert_allclose(out[key][f], row[key], rtol=0, atol=1e-12)


_CIRC = 1.0 / math.sqrt(3.0)  # circumradius of the unit equilateral base
_DEGENERATE_ELL = np.array(
    [
        [1.0, 1.0, 1.0],  # healthy
        [1.0, 1.0, 1.0],  # apex grazing the base plane -> refine
        [1.0, 1.0, 1.0],  # apex strictly below any pyramid -> dead
        [1.0, 1.0, 2.0],  # collinear base -> refine
    ]
)
_DEGENERATE_RAD = np.array(
    [
        [1.0, 1.0, 1.0],
        [math.sqrt(_CIRC**2 + 1e-10)] * 3,
        [0.45, 0.45, 0.45],
        [1.5, 1.5, 1.5],
    ]
)


def test_face_pyramid_flags_on_degenerate_rows():
    circ = _CIRC
    out = kernels.face_pyramids(_DEGENERATE_ELL, _DEGENERATE_RAD)
    assert out["ok"].tolist() == [1, 0, -1, 0]
    assert out["alt2"][0] == pytest.approx(1.0 - circ**2, rel=1e-12)


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


def _poisoned(rng, x, frac=0.15):
    """``x`` with a share of its entries replaced by NaNs of both signs,
    infinities, signed zeros, a negative value and extreme magnitudes."""
    special = np.array(
        [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e-300, 1e300, 5e-324]
    )
    x = x.copy()
    hit = rng.random(x.shape) < frac
    x[hit] = rng.choice(special, hit.sum())
    return x


def _assert_same_pyramids(ell, rad):
    """The kernel, with and without a kept base, against the one-shot
    reference: every output bit for bit on every row."""
    with np.errstate(all="ignore"):
        want = oracles.face_pyramids(ell, rad)
    kept = kernels.face_pyramids(ell, rad, kernels.pyramid_base(ell))
    alone = kernels.face_pyramids(ell, rad)
    assert set(kept) == set(want) == set(alone)
    for key in want:
        assert _same_bits(kept[key], want[key]) and _same_bits(alone[key], want[key]), key
    return want


def test_split_face_pyramids_match_the_one_shot_kernel():
    rng = np.random.default_rng(29)
    ell, rad, _ = _pyramid_batch(rng, 300)
    nan, inf = math.nan, math.inf
    odd_ell = np.array(
        [[1.0, 1e-9, 1.0], [1.0, 1.0, 1e-300], [1.0, 1.0, 0.0], [nan, 1.0, 1.0],
         [1.0, inf, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, inf]]
    )
    odd_rad = np.array(
        [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0],
         [1.0, 1.0, 1.0], [nan, 1.0, 1.0], [1.0, inf, 1.0], [inf, inf, inf]]
    )
    ell = np.concatenate([ell, _DEGENERATE_ELL, odd_ell])
    rad = np.concatenate([rad, _DEGENERATE_RAD, odd_rad])
    want = _assert_same_pyramids(ell, rad)
    assert {-1, 0, 1} <= set(want["ok"].tolist())
    # Batches of every size the pipeline meets, with poisoned entries.  The
    # kernel shares each lateral triangle's sums between its three angles,
    # which the reference forms in different operand orders; when both
    # operands are NaNs of opposite sign, the result's sign can differ.
    # Such rows are never solved (ok 0), so only that sign may differ.
    for n in rng.integers(1, 100, 40):
        ell, rad, _ = _pyramid_batch(rng, n)
        ell, rad = _poisoned(rng, ell), _poisoned(rng, rad)
        with np.errstate(all="ignore"):
            want = oracles.face_pyramids(ell, rad)
        got = kernels.face_pyramids(ell, rad)
        solved = want["ok"] == 1
        assert _same_bits(got["ok"], want["ok"])
        for key in want:
            nan = np.isnan(want[key])
            assert np.array_equal(np.isnan(got[key]), nan), key
            assert _same_bits(got[key][~nan], want[key][~nan]), key
            assert _same_bits(got[key][solved], want[key][solved]), key


def test_face_pyramids_match_the_one_shot_kernel_along_solve_paths(monkeypatch):
    bodies = [
        catalog.tetrahedron(),
        catalog.cube(),
        catalog.twisted_double_polygon(12),
        catalog.doubly_covered_triangle(3.0, 4.0, 5.0),
        catalog.doubly_covered_polygon(8),
        catalog.doubly_covered_polygon(24),
    ] + [hull.random_sphere_development(n, seed=1)[0] for n in (20, 40, 160)]
    calls = []
    solve = kernels.face_pyramids

    def capture(ell, rad, base=None):
        calls.append((ell.copy(), rad.copy()))
        return solve(ell, rad, base)

    monkeypatch.setattr(kernels, "face_pyramids", capture)
    for dev in bodies:
        solve_path(build_metric(dev))
    monkeypatch.undo()
    assert len(calls) > 500
    flagged = 0
    for ell, rad in calls:
        flagged += np.count_nonzero(_assert_same_pyramids(ell, rad)["ok"] != 1)
    assert flagged > 0


def test_infinite_radii_flag_the_row_without_warnings():
    inf = math.inf
    mesh = oracles.mesh_of(catalog.tetrahedron())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernels.face_pyramids([[1.0, 1.0, 1.0]], [[inf, inf, 1.0]])["ok"].tolist() == [0]
        with pytest.raises(PyramidError, match="non-finite"):
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
