"""The batched NumPy kernels against loops, closed forms and a 50-digit
pyramid solve, on random batches and on crafted degenerate rows."""

import math

import numpy as np
import pytest

from mp_refine import _refine_pyramid
from polyforge import kernels


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


def test_face_pyramid_flags_on_degenerate_rows():
    circ = 1.0 / math.sqrt(3.0)  # circumradius of the unit equilateral base
    ell = np.array(
        [
            [1.0, 1.0, 1.0],  # healthy
            [1.0, 1.0, 1.0],  # apex grazing the base plane -> refine
            [1.0, 1.0, 1.0],  # apex strictly below any pyramid -> dead
            [1.0, 1.0, 2.0],  # collinear base -> refine
        ]
    )
    rad = np.array(
        [
            [1.0, 1.0, 1.0],
            [math.sqrt(circ**2 + 1e-10)] * 3,
            [0.45, 0.45, 0.45],
            [1.5, 1.5, 1.5],
        ]
    )
    out = kernels.face_pyramids(ell, rad)
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
    out = kernels.edge_badness(d, l_ik, l_jk, l_il, l_jl, *q)
    assert np.isnan(out[dead]).all()
    assert (~np.isnan(out)).sum() == n - len(dead)


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
