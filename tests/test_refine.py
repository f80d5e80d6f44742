"""The exact refinement of ``polytope.solve_pyramids`` against the
50-digit mpf-object oracle of ``tests/mp_refine.py``: every output bit
for bit, the same exceptions, the two-phase order, the per-call triangle
and congruence-class memos, the triangle angles one at a time, and the
fixed-point atan2 against mpmath's."""

import itertools
import math

import mp_refine
import mpmath
import numpy as np
import pytest
from mp_refine import ANGLE_KEYS, _mp_angle_opp, _refine_pyramid
from mp_refine import solve_pyramids as oracle_solve
from oracles import mesh_of

from polyforge import build_metric, catalog, kernels, polytope, solver
from polyforge.errors import PyramidError, TriangleError
from polyforge.polytope import GeneralizedPolytope
from polyforge.solver import SolverOptions, solve_path

KEYS = ("alt2", "refined") + ANGLE_KEYS


def _outcome(solve, ell, rad):
    """The arrays a batch solve returns, or its exception as (type, text)."""
    try:
        batch = solve(ell, rad)
    except Exception as exc:
        return type(exc), str(exc)
    return batch if isinstance(batch, dict) else vars(batch)


def assert_matches_oracle(ell, rad):
    """solve_pyramids and the oracle agree bit for bit (NaN == NaN) or
    raise the same error; returns the oracle's outcome."""
    ell, rad = np.asarray(ell, dtype=float), np.asarray(rad, dtype=float)
    with np.errstate(all="ignore"):
        want = _outcome(oracle_solve, ell, rad)
        got = _outcome(polytope.solve_pyramids, ell, rad)
    if isinstance(want, tuple):
        assert got == want
        return want
    assert isinstance(got, dict), got
    for key in KEYS:
        assert np.array_equal(got[key], want[key], equal_nan=True), key
    return want


def _pyramids(rng, n, alt2_rel):
    """(ell, rad) of n random pyramids whose squared altitude is alt2_rel
    times the largest squared length of the row."""
    base = np.zeros((n, 3, 3))
    base[:, 1, 0] = rng.uniform(0.7, 2.5, n)
    base[:, 2, 0] = rng.uniform(-1.0, 3.0, n)
    base[:, 2, 1] = rng.uniform(0.4, 2.5, n)
    apex = np.stack([rng.uniform(-1.0, 3.0, n), rng.uniform(-1.0, 3.0, n), np.zeros(n)], axis=1)
    ell = np.stack(
        [np.linalg.norm(base[:, (s + 1) % 3] - base[:, (s + 2) % 3], axis=1) for s in range(3)],
        axis=1,
    )
    flat = np.linalg.norm(apex[:, None, :] - base, axis=2)
    scale = np.maximum((ell * ell).max(axis=1), (flat * flat).max(axis=1))
    rad = np.sqrt(flat * flat + (alt2_rel * scale)[:, None])
    return ell, rad


@pytest.fixture(scope="module")
def flat_batches():
    """Every solve_pyramids input with a flagged row along the solves of
    the doubly covered 4-, 8- and 16-gons."""
    batches = []
    original = polytope.solve_pyramids

    def record(ell, rad, base=None):
        ell, rad = np.array(ell, dtype=float), np.array(rad, dtype=float)
        if np.any(kernels.face_pyramids(ell, rad)["ok"] != 1):
            batches.append((ell, rad))
        return original(ell, rad, base)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polytope, "solve_pyramids", record)
        mp.setattr(solver, "solve_pyramids", record)
        for n in (4, 8, 16):
            solve_path(build_metric(catalog.doubly_covered_polygon(n)), SolverOptions(max_steps=250))
    return batches


def test_rows_along_doubly_covered_polygons(flat_batches):
    outcomes = [assert_matches_oracle(ell, rad) for ell, rad in flat_batches]
    refined = sum(int(o["refined"].sum()) for o in outcomes if isinstance(o, dict))
    dead = sum(isinstance(o, tuple) for o in outcomes)
    assert len(flat_batches) >= 50 and refined >= 500 and dead >= 1


def test_random_near_flat_pyramids():
    rng = np.random.default_rng(17)
    alt2_rel = 10.0 ** rng.uniform(-16.0, -8.0, 200)
    ell, rad = _pyramids(rng, 200, alt2_rel)
    assert np.all(kernels.face_pyramids(ell, rad)["ok"] != 1)
    outcomes = [assert_matches_oracle(ell[f : f + 1], rad[f : f + 1]) for f in range(200)]
    assert sum(isinstance(o, dict) for o in outcomes) >= 150
    live = [f for f, o in enumerate(outcomes) if isinstance(o, dict)]
    assert_matches_oracle(ell[live], rad[live])


def _classes(ell, rad):
    """The congruence classes of the rows: face lists keyed by the least of
    each row's six corner orders, found by brute force."""
    classes = {}
    for f in range(len(ell)):
        key = min(
            tuple(ell[f, list(p)]) + tuple(rad[f, list(p)])
            for p in itertools.permutations(range(3))
        )
        classes.setdefault(key, []).append(f)
    return list(classes.values())


def _six_orders(rng, ell, rad):
    """Every row in all six corner orders, shuffled so that the first row
    of a class in face order may be any of them; the side lengths follow
    their opposite corners."""
    perms = np.array(list(itertools.permutations(range(3))))
    rows = np.repeat(np.arange(len(ell)), 6)
    cols = np.tile(perms, (len(ell), 1))
    order = rng.permutation(len(rows))
    rows, cols = rows[order], cols[order]
    return ell[rows[:, None], cols], rad[rows[:, None], cols], rows


def test_congruent_rows_in_all_six_corner_orders():
    # A later row of a congruence class copies the first row's outputs
    # through the corner map; the oracle solves every row on its own.
    rng = np.random.default_rng(37)
    alt2_rel = 10.0 ** rng.uniform(-30.0, -9.0, 240)
    ell, rad = _pyramids(rng, 240, alt2_rel)
    with mpmath.workdps(50):
        live = np.array([_refine_pyramid(ell[f], rad[f]) is not None for f in range(240)])
    assert 150 <= live.sum() < 240

    ell6, rad6, rows = _six_orders(rng, ell[live], rad[live])
    assert np.all(kernels.face_pyramids(ell6, rad6)["ok"] == 0)
    assert len(_classes(ell6, rad6)) == live.sum()
    want = assert_matches_oracle(ell6, rad6)
    assert np.all(want["refined"])
    # the rows are near flat in earnest: both fold directions occur
    outside = (want["alpha"] > math.pi / 2).any(axis=1)
    assert outside.sum() >= 100 and (~outside).sum() >= 10

    # Dead classes among live ones: every row of a class without a
    # pyramid is listed, in face order, with the oracle's text.
    few = np.flatnonzero(live)[:4]
    dead = np.flatnonzero(~live)[:4]
    ell6, rad6, rows = _six_orders(rng, ell[np.r_[few, dead]], rad[np.r_[few, dead]])
    is_dead = rows >= len(few)
    assert np.all(kernels.face_pyramids(ell6, rad6)["ok"][is_dead] == 0)
    text = assert_matches_oracle(ell6, rad6)[1]
    assert text == f"no apex pyramid over faces {np.flatnonzero(is_dead).tolist()}"


def test_thin_bases_raise_the_same_triangle_error():
    circ = 1.0 / math.sqrt(3.0)
    ell = np.array(
        [
            [1.0, 1.0, 2.0],  # collinear base
            [2.0, 1.0, 1.0],
            [1.0, 1.0, 2.0 - 2.0**-52],  # thin, but a triangle
            [1.0, 0.5, 0.5 + 2.0**-53],
            [1.0, 1.0, 0.0],  # zero side: both divide by zero
        ]
    )
    rad = np.full((5, 3), 1.5)
    for f in range(5):
        assert_matches_oracle(ell[f : f + 1], rad[f : f + 1])
    # a thin base after a dead face and before a live flagged one
    ell3 = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 2.0], [1.0, 1.0, 1.0]])
    rad3 = np.array([[0.45] * 3, [1.5] * 3, [math.sqrt(circ**2 + 1e-10)] * 3])
    assert assert_matches_oracle(ell3, rad3) == (TriangleError, "degenerate base triangle")


def test_thin_bases_far_below_their_sides(monkeypatch):
    # ell (1, b, b): a base of width 1 and height about b.  Its y2^2 rounds
    # to 0 at 169 bits, so only the exact sign of Heron's product, which
    # both sides take, calls it a triangle.
    rows = []
    for k in (84, 100, 120):
        b = math.ldexp(1.2345, k)
        ell, rad = np.array([[1.0, b, b]]), np.array([[b, b, b]])
        assert kernels.face_pyramids(ell, rad)["ok"][0] == 0
        got = vars(polytope.solve_pyramids(ell, rad))
        want = oracle_solve(ell, rad)
        assert got["refined"][0] and want["refined"][0]
        for key in KEYS:
            if key != "omega":
                assert np.array_equal(got[key], want[key]), key
        assert got["omega"][0, 0] < 1e-20
        rows.append((ell, rad))
    # past 2^169 the lateral triangle (b, b, 1) is degenerate at 169 bits
    # on both sides, with the same error
    big = np.array([[1.0, 1e300, 1e300]])
    assert assert_matches_oracle(big, np.full((1, 3), 1e300)) == (
        TriangleError,
        "degenerate triangle in high-precision pyramid solve",
    )
    # The apex dihedral omega[0], below 1e-20, comes from coordinates of
    # size b, which 50 digits do not resolve; with 100 digits the oracle
    # agrees with the package bit for bit, omega included.
    monkeypatch.setattr(mp_refine, "_REFINE_DPS", 100)
    for ell, rad in rows:
        assert_matches_oracle(ell, rad)


def test_dead_rows_give_the_same_face_list():
    circ = 1.0 / math.sqrt(3.0)
    live = [math.sqrt(circ**2 + 1e-10)] * 3
    below = [math.sqrt(circ**2 - 1e-10)] * 3  # refined, then no pyramid
    far_below = [0.45] * 3  # flagged dead by the kernel
    rad = np.array([live, below, [1.0] * 3, far_below, live, below])
    ell = np.ones_like(rad)
    assert kernels.face_pyramids(ell, rad)["ok"].tolist() == [0, 0, 1, -1, 0, 0]
    want = (PyramidError, "no apex pyramid over faces [1, 3, 5]")
    assert assert_matches_oracle(ell, rad) == want


def test_non_finite_rows():
    # The kernel flags every such row; the exact solve takes finite
    # inputs only.
    ones = [1.0, 1.0, 1.0]
    rows = [
        (ones, [math.nan, 0.6, 0.6]),
        ([math.nan, 1.0, 1.0], [0.6, 0.6, 0.6]),
        ([math.nan] * 3, [math.nan] * 3),
        (ones, [math.inf, 0.6, 0.6]),
        ([math.inf, 1.0, 1.0], [0.6, 0.6, 0.6]),
        (ones, [1.0, 1.0, -math.inf]),
    ]
    for ell, rad in rows:
        ell, rad = np.array([ell]), np.array([rad])
        with np.errstate(all="ignore"):
            assert kernels.face_pyramids(ell, rad)["ok"][0] == 0
            with pytest.raises(PyramidError, match="^non-finite input"):
                polytope.solve_pyramids(ell, rad)


def test_dead_face_stops_before_any_angle(monkeypatch):
    circ = 1.0 / math.sqrt(3.0)
    live = [math.sqrt(circ**2 + 1e-10 * k) for k in (1, 2, 3)]
    rad = np.array([live, live[::-1], [0.45] * 3, live[1:] + live[:1], live])
    ell = np.ones_like(rad)
    assert kernels.face_pyramids(ell, rad)["ok"].tolist() == [0, 0, -1, 0, 0]
    want = _outcome(oracle_solve, ell, rad)
    assert want == (PyramidError, "no apex pyramid over faces [2]")

    calls = []

    def counted(name):
        original = getattr(polytope, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)

        return wrapper

    for name in ("_tri_angles", "_dihedral"):
        monkeypatch.setattr(polytope, name, counted(name))
    with pytest.raises(PyramidError) as exc:
        polytope.solve_pyramids(ell, rad)
    assert str(exc.value) == want[1]
    assert calls == []
    # the live faces alone are solved, through the same counters
    polytope.solve_pyramids(ell[[0, 1, 3, 4]], rad[[0, 1, 3, 4]])
    assert calls


def test_dead_face_reported_before_a_failing_angle():
    # At 50 digits the slant triangle (1e300, 1e300, 1) has a zero
    # half-perimeter excess, so face 0 has an apex but no angles.  The
    # oracle meets that error first; the two-phase solve reports face 1.
    ell = np.ones((2, 3))
    rad = np.array([[1e300] * 3, [0.45] * 3])
    with np.errstate(all="ignore"):
        assert kernels.face_pyramids(ell, rad)["ok"].tolist() == [0, -1]
        assert _outcome(oracle_solve, ell, rad)[0] is TriangleError
        assert _outcome(polytope.solve_pyramids, ell, rad) == (
            PyramidError,
            "no apex pyramid over faces [1]",
        )
        assert_matches_oracle(ell[:1], rad[:1])


def test_each_distinct_angle_once_per_call(monkeypatch):
    # The doubly covered square: the twin sides of an edge and the mirrored
    # faces repeat every lateral triangle (r_t, r_h, ell), and a twin lists
    # its radii the other way round.  The radii differ, so a memo keyed on
    # their order would evaluate a triangle twice.
    mesh = mesh_of(catalog.doubly_covered_polygon(4))
    radii = np.sqrt(1.0 + 1e-10 * np.arange(1.0, 5.0))
    P = GeneralizedPolytope(mesh, radii)
    ell, rad = P.mesh.ell, P.r[P.mesh.vert]
    assert np.all(P.pyramids.refined)
    keys = set()
    for f in range(len(ell)):
        l, r = ell[f].tolist(), rad[f].tolist()
        for s in range(3):
            t, h = (s + 1) % 3, (s + 2) % 3
            keys.add((min(r[t], r[h]), max(r[t], r[h]), l[s]))
    evaluated = []
    original = polytope._tri_angles

    def shape(ints):
        """A triangle's integer sides divided by their gcd: the same for
        every power-of-two scale."""
        g = math.gcd(*ints)
        return tuple(v // g for v in ints)

    def counted(sides):
        evaluated.append(shape(sides))
        return original(sides)

    monkeypatch.setattr(polytope, "_tri_angles", counted)
    want = sorted(shape(polytope._integers(key)[0]) for key in keys)
    for _ in range(2):  # the memo is per call: a second call evaluates again
        evaluated.clear()
        batch = polytope.solve_pyramids(ell, rad)
        assert sorted(evaluated) == want
        assert 3 * len(ell) > len(keys) > 1
        for key in ANGLE_KEYS:
            assert np.array_equal(getattr(batch, key), getattr(P.pyramids, key))


def test_each_congruence_class_once_per_call(monkeypatch):
    # The doubly covered octagon: each face of the front copy has a mirrored
    # twin on the back copy, the same pyramid in another corner order.  The
    # first row of each class is placed and refined; its twin copies it.
    mesh = mesh_of(catalog.doubly_covered_polygon(8))
    radii = np.sqrt(1.0 + 1e-10 * (1.0 + 0.1 * np.arange(1.0, 9.0)))
    ell, rad = mesh.ell, radii[mesh.vert]
    classes = _classes(ell, rad)
    assert sorted(len(c) for c in classes) == [2] * (len(ell) // 2)
    alone = [polytope.solve_pyramids(ell[f : f + 1], rad[f : f + 1]) for f in range(len(ell))]
    calls = []

    def counted(name):
        original = getattr(polytope, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)

        return wrapper

    for name in ("_apex_frame", "_dihedral"):
        monkeypatch.setattr(polytope, name, counted(name))
    for _ in range(2):  # the memo is per call: a second call evaluates again
        calls.clear()
        batch = polytope.solve_pyramids(ell, rad)
        assert calls.count("_apex_frame") == len(classes)
        assert calls.count("_dihedral") == 6 * len(classes)
        assert np.all(batch.refined)
        # every twin equals its row solved on its own
        for key in ("alt2",) + ANGLE_KEYS:
            got = getattr(batch, key)
            want = np.concatenate([getattr(one, key) for one in alone])
            assert np.array_equal(got, want), key


def _angle_outcomes(sides):
    """All three angles of the triangle with the given float sides, the
    k-th opposite sides[k], from ``polytope._tri_angles`` on the sides as
    integers on one scale and from the oracle's half-angle formula, one
    angle at a time; either may be the error raised, as (type, text)."""

    def package():
        return polytope._tri_angles(polytope._integers(sides)[0])

    def oracle():
        with mpmath.workdps(50):
            a, b, c = (mpmath.mpf(x) for x in sides)
            return tuple(float(_mp_angle_opp(*abc)) for abc in ((a, b, c), (b, c, a), (c, a, b)))

    out = []
    for solve in package, oracle:
        try:
            out.append(solve())
        except TriangleError as exc:
            out.append((TriangleError, str(exc)))
    return out


def _triangles(rng, n):
    """n random triangles of each kind as (n, 3) side arrays, in random
    order within each row: generic, needles (shortest side about 1e-12 of
    the others), nearly degenerate obtuse (the longest side short of the
    other two by about 1e-15 of it) and ties for the longest side."""
    pts = rng.uniform(-1.0, 1.0, (n, 3, 2))
    generic = np.linalg.norm(pts - np.roll(pts, 1, axis=1), axis=2)
    long_ = rng.uniform(0.5, 2.0, n)
    short = long_ * 10.0 ** rng.uniform(-12.5, -11.5, n)
    needles = np.stack([long_, long_ + short * rng.uniform(-0.99, 0.99, n), short], axis=1)
    b, c = rng.uniform(0.2, 2.0, n), rng.uniform(0.2, 2.0, n)
    obtuse = np.stack([(b + c) * (1.0 - 10.0 ** rng.uniform(-15.5, -14.5, n)), b, c], axis=1)
    tied = np.stack([long_, long_, long_ * rng.uniform(0.0, 1.0, n)], axis=1)
    tied[: n // 4, 2] = long_[: n // 4]  # equilateral
    tied[n // 4 : n // 2, 2] = short[n // 4 : n // 2]  # tied needles
    rows = np.concatenate([generic, needles, obtuse, tied])
    return rng.permuted(rows, axis=1)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_triangle_angles_match_the_half_angle_oracle(scale):
    # _tri_angles takes one Heron root for all three angles and the angle
    # at the longest side as pi minus the other two; the oracle takes each
    # angle by its own half-angle formula, so agreement is checked, not
    # built in.
    rng = np.random.default_rng(29)
    rows = _triangles(rng, 120) * scale
    angles = []
    for sides in rows.tolist():
        got, want = _angle_outcomes(tuple(sides))
        assert got == want, sides
        angles.append(want)
    angles = np.array(angles)
    assert np.allclose(angles.sum(axis=1), math.pi, rtol=1e-15)
    assert angles.min() < 1e-11 and angles.max() > math.pi - 1e-6


def test_triangle_angles_of_degenerate_sides():
    ulp = 2.0**-52
    cases = [
        (2.0, 1.0, 1.0),
        (2.0 - ulp, 1.0, 1.0),
        (2.0, 1.0, 1.0 - ulp / 2),
        (1.0, 0.0, 1.0),
        (-1.0, 5.0, 5.0),
        (1e300, 1e300, 1.0),
    ]
    for sides in cases:
        for k in range(3):
            rotated = sides[k:] + sides[:k]
            got, want = _angle_outcomes(rotated)
            assert got == want, rotated


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_dihedrals_from_squared_lengths_match_the_frame_oracle(scale):
    # The package takes the dihedrals from squared edge lengths, the oracle
    # from coordinates: different operations, so agreement is checked, not
    # built in.  Below alt2_rel of about 1e-16 the rounding of the radii
    # sets the altitude, and some rows have no pyramid at all.
    rng = np.random.default_rng(23)
    alt2_rel = 10.0 ** rng.uniform(-30.0, -9.0, 300)
    ell, rad = _pyramids(rng, 300, alt2_rel)
    ell, rad = ell * scale, rad * scale
    assert np.all(kernels.face_pyramids(ell, rad)["ok"] != 1)
    outcomes = [assert_matches_oracle(ell[f : f + 1], rad[f : f + 1]) for f in range(300)]
    live = [f for f, o in enumerate(outcomes) if isinstance(o, dict)]
    assert len(live) >= 180
    want = assert_matches_oracle(ell[live], rad[live])
    # a nearly flat pyramid folds its lateral face back over the base
    # (alpha near 0) unless the apex lies beyond that side (alpha near pi)
    outside = (want["alpha"] > math.pi / 2).any(axis=1)
    assert outside.sum() >= len(live) // 2 and (~outside).sum() >= 10


def _atan2_cases(rng):
    """(y, x) float pairs: operands from 2^-60 to 2^60 in all four
    quadrants' halves, x = 0, and angles within 1e-15 of 0 and of pi."""
    n = 150
    y = np.ldexp(rng.uniform(0.5, 1.0, n), rng.integers(-60, 61, n))
    x = np.ldexp(rng.uniform(0.5, 1.0, n), rng.integers(-60, 61, n)) * rng.choice([-1.0, 1.0], n)
    near = np.ldexp(rng.uniform(0.5, 1.0, n), rng.integers(-60, 61, n))
    tiny = near * 10.0 ** rng.uniform(-25.0, -15.0, n)
    pairs = list(zip(y, x)) + [(v, 0.0) for v in y[:20]]
    pairs += list(zip(tiny, near)) + list(zip(tiny, -near))
    pairs += [(1.0, 1.0), (1.0, -1.0), (3.0, 4.0), (2.0**-60, 2.0**60), (2.0**60, -(2.0**-60))]
    return pairs


def _fixed_atan2(y, x, bits=None):
    """polytope._atan2 on the float pair (y, x), through its integer form
    atan2(sqrt(Y^2), X) on one common scale."""
    (yi, xi), _ = polytope._integers([y, x])
    args = (yi * yi, xi) if bits is None else (yi * yi, xi, bits)
    return polytope._atan2(*args)


def _mp_atan2(y, x):
    with mpmath.workdps(50):
        return float(mpmath.atan2(mpmath.mpf(y), mpmath.mpf(x)))


def test_fixed_point_atan2_matches_mpmath():
    pairs = _atan2_cases(np.random.default_rng(41))
    got = [_fixed_atan2(y, x) for y, x in pairs]
    assert got == [_mp_atan2(y, x) for y, x in pairs]
    got = np.array(got)
    assert (got < 1e-15).sum() >= 100 and (got > math.pi - 1e-15).sum() >= 100
    assert _fixed_atan2(1.0, 0.0) == math.pi / 2 and _fixed_atan2(0.0, -1.0) == math.pi


def test_fixed_point_atan2_recomputes_undecided_roundings(monkeypatch):
    # At 16 bits no rounding is decided, so each angle takes the Ziv
    # fallback, doubling the bits until it is; the result is still the
    # correctly rounded double.
    tried = []
    original = polytope._atan2_fixed

    def recorded(p, x, bits):
        tried.append(bits)
        return original(p, x, bits)

    monkeypatch.setattr(polytope, "_atan2_fixed", recorded)
    for y, x in _atan2_cases(np.random.default_rng(43))[::7]:
        if not x:  # pi/2 needs no fixed-point value
            continue
        tried.clear()
        assert _fixed_atan2(y, x, bits=16) == _mp_atan2(y, x)
        assert tried[:3] == [16, 32, 64]
    assert polytope._nearest(*original(3, 1, 16)) is None  # pi/3 at 16 bits


def test_triangle_angles_where_the_oracle_sums_round():
    # Needles (b, b, c) with b / c from 2^100 to 2^130: the sum b + c fills
    # more than the oracle's 169 bits from about 2^116 on, so the rounding
    # of the excesses sets the needle's angles; each angle must still match.
    rng = np.random.default_rng(47)
    ratios = np.arange(100, 131)
    longs = rng.uniform(0.5, 2.0, ratios.size)
    shorts = np.ldexp(longs * rng.uniform(0.5, 2.0, ratios.size), -ratios)
    for b, c in zip(longs.tolist(), shorts.tolist()):
        for sides in set(itertools.permutations((b, b, c))):
            got, want = _angle_outcomes(sides)
            assert got == want, sides
