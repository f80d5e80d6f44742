import copy
import dataclasses
import itertools
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import lapack

from conftest import HULL_CASES, thin_hull
from oracles import band_of, chord_error, dense_jacobian, unpack_band, validate_polytope
from polyforge import catalog, cli, embed, hull, jacobian, kernels, solver
from polyforge.errors import PolyforgeError, SolverAbort, StepReductionError
from polyforge.jacobian import assemble
from polyforge.polytope import GeneralizedPolytope
from polyforge.solver import (
    JacobianFactor,
    choose_initial_radius,
    solve_path,
    start_state,
    step,
)
from polyforge.surface import build_metric
from polyforge.triangulation import CornerMesh, badness_scan, weighted_delaunay


def _strict_start(metric, mesh, radius):
    """The equal-radius polytope if it exists and sits strictly inside
    the admissible cone, else None."""
    try:
        P = GeneralizedPolytope(mesh, np.full(mesh.n_vertices, radius))
    except PolyforgeError:
        return None
    kappa = P.kappa
    inside = np.all(kappa > 0.0) and np.all(kappa < metric.deficits)
    return P if inside and kappa.sum() - kappa.max() > 2.0 * math.pi else None


@pytest.mark.parametrize(
    "make",
    [
        catalog.tetrahedron,
        catalog.cube,
        lambda: catalog.doubly_covered_polygon(8),
        lambda: hull.random_sphere_development(160, seed=[1, 160])[0],
    ],
    ids=["tetrahedron", "cube", "doubled-8", "hull-160"],
)
def test_initial_radius_is_the_least_admissible_to_within_sqrt2(make, monkeypatch):
    # The start is strictly admissible; a factor sqrt(2) below it is not,
    # or no equal radius there carries the longest side; and finding it
    # costs at most one pyramid solve more than doubling from ell_max does.
    metric = build_metric(make())
    mesh = CornerMesh.from_metric(metric)
    weighted_delaunay(mesh, np.ones(mesh.n_vertices))
    ell_max = float(mesh.ell.max())
    doublings = 1
    while _strict_start(metric, mesh, ell_max * 2.0 ** (doublings - 1)) is None:
        doublings += 1
    solves = []
    solve = kernels.face_pyramids

    def counted(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(kernels, "face_pyramids", counted)
    radius, P = choose_initial_radius(metric, mesh)
    monkeypatch.undo()
    start = _strict_start(metric, mesh, radius)
    assert start is not None and np.array_equal(P.kappa, start.kappa)
    below = radius / math.sqrt(2.0)
    assert below <= 0.5 * ell_max or _strict_start(metric, mesh, below) is None
    assert len(solves) <= doublings + 1


def test_start_state_begins_at_one(tetra_metric):
    state = start_state(tetra_metric)
    assert state.t == 1.0
    assert state.steps_accepted == 0
    np.testing.assert_allclose(state.r, state.r_init)
    assert len(state.records) == 1
    assert state.records[0]["t"] == 1.0


def test_tetra_path_reaches_circumradius(tetra_path):
    result = tetra_path.result
    state = result.state
    assert state.stop == "landed"
    assert state.t == 0.0
    # the regular tetrahedron keeps its symmetry all the way down to the
    # circumradius of the unit-edge body
    assert np.ptp(result.r) <= 1e-6
    np.testing.assert_allclose(result.r, math.sqrt(3.0 / 8.0), atol=1e-6)
    # the final curvature vanishes, to rounding level
    np.testing.assert_allclose(result.polytope.kappa, 0.0, atol=1e-14)


def test_records_march_downward(cube_path):
    recs = cube_path.result.state.records
    ts = [rec["t"] for rec in recs]
    assert ts[0] == 1.0
    assert all(b < a for a, b in zip(ts, ts[1:]))
    assert recs[-1]["kappa_inf"] < 1e-3 * recs[0]["kappa_inf"]
    for rec in recs:
        assert rec["cond"] is None or isinstance(rec["cond"], float)
    json.dumps(recs)


def test_records_round_cond_to_six_digits(tetra_metric):
    # LAPACK's estimate may change in its last bits from run to run; the
    # record keeps 6 significant digits, step control the full estimate
    conds = []
    result = solve_path(tetra_metric, progress=lambda state: conds.append(state.factor.cond))
    recs = result.state.records
    assert len(recs) == len(conds) > 1
    for rec, cond in zip(recs, conds):
        assert rec["cond"] == float(f"{cond:.6g}")
        assert rec["cond"] == pytest.approx(cond, rel=5e-6)
    assert any(rec["cond"] != cond for rec, cond in zip(recs, conds))


def test_cube_path_never_flips(cube_path):
    # equal radii keep every square diagonal exactly cocircular
    assert cube_path.result.state.flips == 0
    assert cube_path.result.events == []


def test_step_rejection_rolls_back(cube_metric):
    # the Euler step from t = 1 to 0.5 leaves no face an apex pyramid
    state = start_state(cube_metric)
    faces = ", ".join(map(str, range(12)))
    _assert_rejected(state, 0.5, f"PyramidError: no apex pyramid over faces [{faces}]")


def _assert_rejected(state, t_new, reason):
    """step(state, t_new) rejects for ``reason`` and changes nothing but
    the rejection count."""
    before = state.dump()
    P, factor, records = state.P, state.factor, list(state.records)
    result = step(state, t_new)
    assert (result.accepted, result.reason) == (False, reason)
    before["steps_rejected"] += 1
    assert state.dump() == before
    assert state.P is P and state.factor is factor and state.records == records


def test_newton_budget_rejects(cube_metric, monkeypatch):
    monkeypatch.setattr(solver, "MAX_NEWTON", 1)
    state = start_state(cube_metric)
    _assert_rejected(state, 1.0 - solver.DT_INIT, "no convergence in 1 iterations")


def test_band_rejects(cube_metric):
    # every vertex's deficit halved, below kappa(1) = 1.14
    state = start_state(cube_metric)
    state.metric = dataclasses.replace(cube_metric, deficits=0.5 * cube_metric.deficits)
    _assert_rejected(state, 1.0 - solver.DT_INIT, "curvature left the admissible band")


def test_radius_cap_rejects(cube_metric, monkeypatch):
    monkeypatch.setattr(solver, "RADIUS_CAP", 0.5)
    state = start_state(cube_metric)
    _assert_rejected(state, 1.0 - solver.DT_INIT, "radii escaped the initial bound")


def test_dihedral_above_pi_rejects(cube_metric, monkeypatch):
    class Folded(GeneralizedPolytope):
        """Reports every edge dihedral pi above its value."""

        def curvature_report(self):
            rep = super().curvature_report()
            return dataclasses.replace(rep, theta=rep.theta + math.pi)

    state = start_state(cube_metric)
    monkeypatch.setattr(solver, "GeneralizedPolytope", Folded)
    _assert_rejected(state, 1.0 - solver.DT_INIT, "edge dihedral exceeded pi")


def test_area_decrease_rejects(cube_metric):
    # a step back up the path grows every curvature, so the spherical
    # section loses area
    state = start_state(cube_metric)
    _assert_rejected(state, 1.0 + solver.DT_INIT, "spherical section area decreased")


def test_step_size_underflow_aborts(cube_metric, monkeypatch):
    monkeypatch.setattr(solver, "RADIUS_CAP", 0.5)  # every step rejects
    with pytest.raises(SolverAbort, match=r"^step size underflow at t=1\.0: radii escaped") as err:
        solve_path(cube_metric)
    dump = err.value.state_dump
    assert dump["reason"] == "radii escaped the initial bound"
    assert dump["t"] == 1.0 and dump["steps_accepted"] == 0
    assert dump["jacobian_sign"] == (-1) ** (cube_metric.n_vertices - 1)
    # DT_INIT halved until it falls below DT_MIN
    assert dump["steps_rejected"] == math.ceil(math.log2(solver.DT_INIT / solver.DT_MIN))
    json.dumps(dump)


def test_progress_callback_sees_every_record(tetra_metric):
    seen = []
    result = solve_path(tetra_metric, progress=lambda state: seen.append(state.records[-1]))
    assert seen == result.state.records
    keys = {"t", "kappa_inf", "flips_so_far", "newton_iters", "cond", "predictor_residual"}
    assert all(set(rec) == keys for rec in seen)


def test_records_carry_the_predictor_residual(cube_metric):
    # Each record after the first keeps its step's predictor residual in
    # units of the Newton tolerance: the first iterate's |kappa - t kappa(1)|
    # at the predicted radii, after their flips.  The step took one iterate
    # exactly when that residual met its own stop: LOOSE_TOL Newton
    # tolerances on a clean path above T_TIGHT, the tolerance itself below.
    # The landing, which stops on the size of an update, takes two.
    states = []
    result = solve_path(cube_metric, progress=lambda state: states.append(copy.deepcopy(state)))
    recs = result.state.records
    assert recs[0]["predictor_residual"] is None
    assert len(states) == len(recs) >= 10
    for before, rec in zip(states, recs[1:]):
        tangent = before.factor.solve(before.kappa1)
        if before.previous is None:
            r = before.r - (before.t - rec["t"]) * tangent
        else:
            r = solver._hermite(*before.previous, before.t, before.r, tangent, rec["t"])
        mesh = before.mesh.copy()
        weighted_delaunay(mesh, r * r)
        residual = GeneralizedPolytope(mesh, r).kappa - rec["t"] * before.kappa1
        tol = max(before.newton_tol, solver._kappa_floor(before.factor.norm, r))
        assert rec["predictor_residual"] == float(np.abs(residual).max()) / tol
        stop = tol
        if before.clean and rec["t"] > solver.T_TIGHT:
            stop = max(tol, solver.LOOSE_TOL * before.newton_tol)
        if rec["t"] == 0.0:
            assert rec["newton_iters"] == 2
        else:
            assert (rec["newton_iters"] == 1) == (rec["predictor_residual"] <= stop / tol)
    assert recs[-1]["t"] == 0.0


def test_next_step_follows_from_the_predictor_residual(tetra_path, cube_path):
    # On a clean path without rejections, each step is the last one scaled
    # by (RESIDUAL_TARGET / rho0)^(1/p) within DT_RATIO, p = 2 after the
    # first (Euler) step and 4 after Hermite ones, and capped at
    # DT_CAP_CLEAN of t; the first state at or below T_JUMP lands.
    lo, hi = solver.DT_RATIO
    for run in (tetra_path, cube_path):
        state = run.result.state
        assert state.steps_rejected == 0
        recs = state.records
        ts = [rec["t"] for rec in recs]
        ratios = []
        for k in range(1, len(recs) - 1):
            rho0 = recs[k]["predictor_residual"]
            p = 2 if k == 1 else 4
            ratio = min(hi, max(lo, (solver.RESIDUAL_TARGET / rho0) ** (1.0 / p)))
            dt = min((ts[k - 1] - ts[k]) * ratio, solver.DT_CAP_CLEAN * ts[k])
            if ts[k] <= solver.T_JUMP:
                assert ts[k + 1] == 0.0
                assert k == len(recs) - 2
            else:
                assert ts[k + 1] == pytest.approx(ts[k] - dt, rel=1e-12)
            ratios.append(ratio)
        # the residual both shrinks and stretches steps on these paths
        assert min(ratios) < 1.0 and max(ratios) == hi


def test_observer_sampling_matches_steps(tetra_path):
    state = tetra_path.result.state
    assert len(tetra_path.samples) == state.steps_accepted + 1
    assert tetra_path.samples[0][0] == 1.0
    assert tetra_path.samples[-1][0] == state.t


def test_flips_fire_on_flat_edges(monkeypatch):
    # this hull's deformation crosses triangulation walls; every flip
    # must happen with the edge dihedral at pi.  A step's flips fire at its
    # predicted radii, past the wall (by 2e-3 here), so steps whose flips
    # fire more than 1e-5 from pi are rejected and retried smaller.
    honest = solver._edge_theta

    def near_pi(mesh, r, e):
        theta = honest(mesh, r, e)
        far = np.abs(theta - math.pi) > 1e-5
        if far.any():
            raise StepReductionError(f"flip executed at theta {theta[far][0]!r}")
        return theta

    monkeypatch.setattr(solver, "_edge_theta", near_pi)
    dev, _, _ = hull.random_sphere_development(6, seed=2)
    metric = build_metric(dev)
    result = solve_path(metric)
    assert len(result.events) >= 1
    for event in result.events:
        assert abs(event.theta - math.pi) <= 1e-5
        assert 0.0 < event.t < 1.0
    json.dumps([e.as_dict() for e in result.events])


@pytest.mark.parametrize(
    "axes, events",
    [((1.0, 1.0, 20.0), 132), ((100.0, 100.0, 1.0), 202), ((1000.0, 1000.0, 1.0), 926)],
    ids=["cigar-1-1-20", "disc-100-1", "disc-1000-1"],
)
def test_thin_hulls_flip_along_the_path_and_reconstruct(axes, events):
    # Thin bodies cross hundreds of triangulation walls, so their paths
    # run many flip rounds, each pinned to its exact count; the result is
    # held to a04's congruence bound.
    dev, points, corner_point = thin_hull(40, axes, seed=[3, 40])
    metric = build_metric(dev)
    result = solve_path(metric)
    assert len(result.events) == events
    e = embed.place_faces(result.polytope)
    original = np.empty_like(e.vertices)
    original[metric.corner_vertex.ravel()] = points[corner_point.ravel()]
    rms, _ = embed.congruence_check(e.vertices, original)
    assert rms <= 1e-4 * e.diameter


def test_jacobian_continuous_across_cocircular_wall(cube_metric):
    # two triangulations of the same slightly inflated cube, differing by
    # one flat diagonal, give the same curvature Jacobian
    mesh1 = CornerMesh.from_metric(cube_metric)
    e, vals = badness_scan(mesh1, np.ones(8))
    diag = next(x for x, v in zip(e, vals) if abs(v) <= 1e-9)
    r = np.full(8, 1.02 * math.sqrt(3.0) / 2.0)
    J1 = dense_jacobian(validate_polytope(GeneralizedPolytope(mesh1, r)))
    mesh2 = mesh1.copy()
    mesh2.flip(diag)
    J2 = dense_jacobian(GeneralizedPolytope(mesh2, r))
    assert np.abs(J1 - J2).max() <= 1e-6 * np.abs(J1).max()


_FLAT_CASES = {
    "doubled-345": lambda: catalog.doubly_covered_triangle(3.0, 4.0, 5.0),
    "doubled-square": lambda: catalog.doubly_covered_polygon(4),
    "doubled-8": lambda: catalog.doubly_covered_polygon(8),
    "doubled-10": lambda: catalog.doubly_covered_polygon(10),
    "doubled-24": lambda: catalog.doubly_covered_polygon(24),
    "doubled-43": lambda: catalog.doubly_covered_polygon(43),
}
# The flat paths that give out below their fold stop when it is switched
# off: in doubles their Newton steps stop converging there, until the
# step size underflows on a rejection for want of a pyramid (the square),
# a numerically singular J (the 8-gon and the 24-gon) or an edge dihedral
# past pi (the 10-gon).  The others run on to an end of the path: the
# triangle lands at t = 0, and the 43-gon steps on to KAPPA_STOP.
_ABORT_PAST_THE_FOLD_STOP = {"doubled-square", "doubled-8", "doubled-10", "doubled-24"}
_RUN_ON_STOP = {"doubled-345": "landed", "doubled-43": "kappa_stop"}


@pytest.mark.parametrize("name", list(_FLAT_CASES))
def test_flat_paths_stop_once_folds_classify(name, request):
    # A flat path stops at its first accepted state at or below T_JUMP
    # whose dihedrals classify as folds and flat edges.  place_faces lays
    # them out snapped to exactly 0 and pi, so the layout is the one the
    # same path gives when it runs on to the end of the path, bit for bit.
    # Paths that cannot run on abort below the stop, with a state dump.
    metric = build_metric(_FLAT_CASES[name]())
    stopped = solve_path(metric)
    state = stopped.state
    assert state.stop == "folds" and state.t <= solver.T_JUMP
    assert float(np.abs(state.P.kappa).max()) < 1e-4
    e = embed.place_faces(stopped.polytope)
    assert e.closure_residual <= 1e-12 * e.diameter
    assert e.degenerate

    request.getfixturevalue("fold_stop_off")
    classified = []  # per accepted state: t <= T_JUMP and the folds classify
    records = []

    def watch(state):
        folds = state.P.curvature_report().folds()
        classified.append(state.t <= solver.T_JUMP and folds is not None)
        records.append(state.records[-1])

    if name in _ABORT_PAST_THE_FOLD_STOP:
        with pytest.raises(SolverAbort, match="^step size underflow") as err:
            solve_path(metric, progress=watch)
        dump = err.value.state_dump
        assert dump["t"] < state.t and dump["steps_accepted"] > state.steps_accepted
        json.dumps(dump)
    else:
        run_on = solve_path(metric, progress=watch)
        assert run_on.state.stop == _RUN_ON_STOP[name] and run_on.state.t < state.t
        e_run_on = embed.place_faces(run_on.polytope)
        assert np.array_equal(e.vertices, e_run_on.vertices)
        assert e.faces == e_run_on.faces
        assert e.as_json() == e_run_on.as_json()
    # the same path up to the stop, which is its first classifying state
    assert records[: len(state.records)] == state.records
    assert classified.index(True) == len(state.records) - 1


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(catalog.tetrahedron, id="tetrahedron"),
        pytest.param(catalog.cube, id="cube"),
    ]
    + [
        pytest.param(lambda n=n: catalog.twisted_double_polygon(n), id=f"twisted-{n}")
        for n in (6, 12, 24)
    ]
    + [
        pytest.param(lambda n=n: hull.random_sphere_development(n, seed=1)[0], id=f"hull-{n}")
        for n in (20, 40, 160)
    ]
    + [
        pytest.param(lambda axes=axes: thin_hull(40, axes, seed=[3, 40])[0], id=name)
        for name, axes in (
            ("cigar-1-1-20", (1.0, 1.0, 20.0)),
            ("disc-100-1", (100.0, 100.0, 1.0)),
            ("disc-1000-1", (1000.0, 1000.0, 1.0)),
        )
    ],
)
def test_nondegenerate_paths_never_stop_on_folds(make, request):
    # 3-dimensional bodies keep their dihedrals far from 0, so their paths
    # land, and their reports and vertices are those of the same solve
    # without the fold stop, byte for byte.
    metric = build_metric(make())
    runs = [cli.run_pipeline(metric)]
    request.getfixturevalue("fold_stop_off")
    runs.append(cli.run_pipeline(metric))
    for run in runs:
        assert run.solve.state.stop == "landed"
        assert run.solve.state.t == 0.0
    with_stop, without = runs
    assert json.dumps(with_stop.report) == json.dumps(without.report)
    assert np.array_equal(with_stop.embedded.vertices, without.embedded.vertices)


def test_abort_carries_state_dump(cube_metric):
    with pytest.raises(SolverAbort) as err:
        solve_path(cube_metric, max_steps=1)
    dump = err.value.state_dump
    assert dump["reason"]
    assert {"t", "r", "mesh", "events", "flips"} <= set(dump)
    json.dumps(dump)


def test_twisted_polygon_converges():
    metric = build_metric(catalog.twisted_double_polygon(4))
    result = solve_path(metric)
    assert result.state.flips > 0  # the fan start is not weighted-Delaunay
    assert result.state.stop == "landed"
    kappa = result.polytope.kappa
    assert float(np.abs(kappa).max()) <= 1e-7


@pytest.mark.parametrize(
    "dev, flips",
    [
        pytest.param(catalog.twisted_double_polygon(n), f, id=f"twisted-{n}")
        for n, f in ((6, 8), (12, 20), (24, 44))
    ]
    + [pytest.param(catalog.doubly_covered_triangle(3.0, 4.0, 5.0), 0, id="doubled-345")]
    + [pytest.param(catalog.doubly_covered_polygon(n), 0, id=f"doubled-{n}") for n in range(4, 25)],
)
def test_regular_polygons_flip_no_cocircular_edge(dev, flips):
    # Regular polygons are full of cocircular quads, whose badness is
    # rounding noise around 0, so these counts pin BAD_TOL: at 1e-14 the
    # twisted 6-, 12- and 24-gons make 11, 62 and 218 flips and the
    # doubled 8-gon 25.  The twisted polygons flip only their fan start.
    state = solve_path(build_metric(dev)).state
    assert (state.flips, state.events) == (flips, [])


@pytest.mark.parametrize(
    "make, steps",
    [pytest.param(lambda: catalog.doubly_covered_triangle(3.0, 4.0, 5.0), (18, 1), id="doubled-345")]
    + [
        pytest.param(lambda n=n: catalog.doubly_covered_polygon(n), steps, id=f"doubled-{n}")
        for n, steps in (
            (4, (15, 1)), (6, (14, 1)), (8, (14, 1)), (10, (14, 1)), (12, (14, 2)),
            (16, (13, 1)), (20, (13, 1)), (24, (13, 1)), (32, (13, 1)), (43, (13, 1)),
            (48, (13, 1)), (64, (13, 1)),
        )
    ]
    + [
        pytest.param(lambda axes=axes: thin_hull(40, axes, seed=[3, 40])[0], steps, id=name)
        for name, axes, steps in (
            ("cigar-1-1-20", (1.0, 1.0, 20.0), (76, 8)),
            ("disc-100-1", (100.0, 100.0, 1.0), (128, 11)),
            ("disc-1000-1", (1000.0, 1000.0, 1.0), (262, 19)),
        )
    ],
)
def test_step_attempts_per_path(make, steps):
    # (accepted, rejected) steps.  The flat paths stay clean, rejecting only
    # their landing and, on the 12-gon, one wide step after it; the thin
    # hulls reject their first step, so their unclean paths keep the steps
    # grown by iterate counts, and try the landing again each time t
    # halves.
    state = solve_path(build_metric(make())).state
    assert (state.steps_accepted, state.steps_rejected) == steps


def test_vertex_count_survives_the_start_flips():
    # A mesh stores its vertex count once; a flip rewires faces but keeps
    # every vertex label.
    metric = build_metric(catalog.twisted_double_polygon(12))
    state = start_state(metric)
    assert state.flips == 20
    for mesh in (state.mesh, state.mesh.copy()):
        assert mesh.n_vertices == int(mesh.vert.max()) + 1 == metric.n_vertices


@pytest.mark.parametrize("n", [10, 12, 16, 20, 24, 32])
def test_doubly_covered_polygon_reaches_flat_limit(n):
    # the dihedral check shares the Newton tolerance's noise floor, so
    # the last bits of a Newton update near the flat body cannot stall it;
    # the folds are then laid out at exactly 0 and pi, so the development
    # closes to rounding level whatever t the path stopped at
    metric = build_metric(catalog.doubly_covered_polygon(n))
    result = solve_path(metric, max_steps=250)
    e = embed.place_faces(result.polytope)
    assert e.closure_residual <= 1e-12 * e.diameter
    assert e.degenerate


def _svd_solve(J, rhs, drop=0):
    """Solve through the SVD of J, dropping its ``drop`` smallest singular
    values (a truncated pseudo-inverse when drop > 0)."""
    u, sigma, vt = np.linalg.svd(J)
    keep = len(sigma) - drop
    return vt[:keep].T @ ((u[:, :keep].T @ rhs) / sigma[:keep])


def _check_factor(band, rhs):
    """The LU factor of a banded Jacobian against the SVD of the same
    matrix."""
    n = len(rhs)
    J = unpack_band(band)
    factor = JacobianFactor.of(band)
    sigma = np.linalg.svd(J, compute_uv=False)
    kappa2 = sigma[0] / sigma[-1]
    x_lu, x_svd = factor.solve(rhs), _svd_solve(J, rhs)
    # both solve the same system; the solutions themselves can only agree
    # to about cond * eps, so compare them directly only where that is small
    assert np.linalg.norm(J @ (x_lu - x_svd)) <= 1e-10 * np.linalg.norm(rhs)
    if kappa2 <= 1e5:
        assert np.linalg.norm(x_lu - x_svd) <= 1e-10 * np.linalg.norm(x_svd)
    # ||J||_1 bounds sigma_max from both sides for a symmetric J
    assert sigma[0] <= factor.norm <= math.sqrt(n) * sigma[0]
    assert kappa2 / n <= factor.cond <= n * kappa2
    return kappa2


def test_lu_matches_svd_on_hull():
    dev, _, _ = hull.random_sphere_development(40, seed=3)
    state = start_state(build_metric(dev))
    assert _check_factor(assemble(state.P, state.order), state.kappa1) <= 1e5
    # the state keeps the factor of exactly that matrix
    factor = JacobianFactor.of(assemble(state.P, state.order))
    np.testing.assert_array_equal(state.factor.lu, factor.lu)
    np.testing.assert_array_equal(state.factor.piv, factor.piv)
    assert (state.factor.cond, state.factor.norm) == (factor.cond, factor.norm)


def test_lu_matches_svd_along_cube_path(cube_path):
    kappa1 = cube_path.result.kappa1
    order = cube_path.result.state.order
    conds = []
    for t, mesh, r in cube_path.samples:
        P = GeneralizedPolytope(mesh, r)
        conds.append(_check_factor(assemble(P, order), kappa1))
    assert min(conds) <= 1e5 < max(conds)


def test_singular_jacobian_rejects(cube_metric, monkeypatch):
    state = start_state(cube_metric)
    honest = jacobian.assemble

    def singular(P, order):
        J = unpack_band(honest(P, order))
        J[-1] = J[0]
        return band_of(J, order)

    monkeypatch.setattr(jacobian, "assemble", singular)
    result = step(state, 1.0 - solver.DT_INIT)
    assert not result.accepted
    assert result.reason.startswith("curvature Jacobian is numerically singular")
    assert state.t == 1.0
    # the predictor checks the accepted state's factor for an exact zero
    # pivot, whose solve would be inf or NaN
    monkeypatch.undo()
    state.factor = JacobianFactor.of(band_of(np.zeros((len(state.r),) * 2), state.order))
    result = step(state, 1.0 - solver.DT_INIT)
    assert result.reason == "curvature Jacobian is numerically singular"
    assert state.t == 1.0


def test_factor_norm_is_the_column_sum():
    # the norm comes from the band entries; it must equal the largest
    # column sum of |J| on a matrix that is not symmetric, where the row
    # sums differ, up to the rounding of a sum of 2k + 1 nonnegative terms
    # in another order, and it is the norm the condition estimate used
    rng = np.random.default_rng(7)
    n, k = 50, 6
    B = rng.standard_normal((n, n)) * np.exp(rng.uniform(-10.0, 10.0, (n, n)))
    B[np.abs(np.subtract.outer(np.arange(n), np.arange(n))) > k] = 0.0
    order = rng.permutation(n)
    J = np.empty((n, n))
    J[np.ix_(order, order)] = B  # banded in ``order``, not in the labels
    band = band_of(J, order)
    assert band.k == k
    factor = JacobianFactor.of(band)
    rel = 2 * k * np.finfo(float).eps
    norm_1 = float(np.abs(J).sum(axis=0).max())
    assert factor.norm == pytest.approx(norm_1, rel=rel)
    assert factor.norm != pytest.approx(float(np.abs(J).sum(axis=1).max()), rel=1e-3)
    rcond, _ = lapack.dgbcon(k, k, factor.lu, factor.piv, norm_1)
    assert factor.cond == pytest.approx(1.0 / rcond, rel=rel)


def test_factor_sign_counts_row_swaps():
    # A banded matrix without a dominant diagonal pivots often; gbtrf's
    # pivots are 0-based, and each one that moves a row flips the sign.
    rng = np.random.default_rng(11)
    n, k = 40, 5
    J = rng.standard_normal((n, n))
    J[np.abs(np.subtract.outer(np.arange(n), np.arange(n))) > k] = 0.0
    for seed in range(4):
        order = np.random.default_rng(seed).permutation(n)
        P = np.empty((n, n))
        P[np.ix_(order, order)] = J
        factor = JacobianFactor.of(band_of(P, order))
        assert np.count_nonzero(factor.piv != np.arange(n)) > 10
        assert factor.sign == np.linalg.slogdet(J)[0]
        J[seed] *= -1.0  # the next matrix has the other sign


@pytest.mark.parametrize("name", ["tetrahedron", "cube"])
def test_factor_sign_is_the_sign_of_the_determinant(name):
    state = start_state(build_metric(getattr(catalog, name)()))
    assert state.factor.sign == np.sign(np.linalg.det(dense_jacobian(state.P)))
    # an exact zero pivot has no sign
    zero = band_of(np.zeros((state.P.n_vertices,) * 2), state.order)
    assert JacobianFactor.of(zero).sign == 0


def test_factor_sign_follows_the_theorem_along_paths(cube_metric):
    # One positive eigenvalue and n - 1 negative ones at every accepted
    # state, those that Newton left short of the Newton tolerance too: the
    # loose stop keeps the path on the theorem's branch.
    hull160 = build_metric(hull.random_sphere_development(160, seed=[1, 160])[0])
    # At t = 0 J has corank 3 (a08), so the landed state keeps the
    # landing's pinned factor instead, and that one is well conditioned.
    for metric in (cube_metric, hull160):
        seen = []  # (t, sign)
        state = solve_path(metric, progress=lambda s: seen.append((s.t, s.factor.sign))).state
        signs = [sign for t, sign in seen if t > 0.0]
        assert len(signs) == state.steps_accepted >= 9
        assert signs == [(-1) ** (metric.n_vertices - 1)] * len(signs)
        assert (state.stop, seen[-1][0]) == ("landed", 0.0)
        assert state.factor.cond < 1.0 / solver.RCOND_MIN


@pytest.mark.parametrize("name", ["tetra_metric", "cube_metric", "hull40"])
def test_clean_path_lands_once(name, request):
    if name == "hull40":
        metric = build_metric(hull.random_sphere_development(40, seed=3)[0])
    else:
        metric = request.getfixturevalue(name)
    log = request.getfixturevalue("step_log")
    state = solve_path(metric).state
    ts = [rec["t"] for rec in state.records]
    assert state.steps_rejected == 0
    # the first state at or below T_JUMP lands at t = 0 exactly, in one
    # attempt, and the path ends there
    assert (state.stop, ts[-1]) == ("landed", 0.0)
    assert ts[-2] <= solver.T_JUMP
    assert all(t > solver.T_JUMP for t in ts[:-2])
    assert [s.t_new for s in log] == ts[1:]
    # the landing takes two iterates: the prediction and one update
    assert state.records[-1]["newton_iters"] == 2
    # every accepted state's factor passes RCOND_MIN, and so does the
    # landing's pinned one, which the landed state keeps
    assert all(rec["cond"] <= 1.0 / solver.RCOND_MIN for rec in state.records)


@pytest.mark.parametrize(
    "make",
    [
        catalog.cube,
        lambda: hull.random_sphere_development(160, seed=[1, 160])[0],
        lambda: catalog.doubly_covered_polygon(8),
    ],
    ids=["cube", "hull160", "doubled-8"],
)
def test_states_the_path_reads_exactly_meet_the_newton_tolerance(make, step_log):
    # Newton stops LOOSE_TOL tolerances short on a clean path above
    # T_TIGHT.  The state that ends the path and the two the landing
    # predicts from lie below T_TIGHT, and each meets the Newton tolerance
    # of the step that reached it, whose noise scale is the factor it
    # started from.
    norms, ratios = [], {}  # ratios: t -> residual / tol

    def seen(state):
        if norms:
            err = float(np.abs(state.P.kappa - state.t * state.kappa1).max())
            ratios[state.t] = err / max(state.newton_tol, solver._kappa_floor(norms[-1], state.r))
        norms.append(state.factor.norm)

    state = solve_path(build_metric(make()), progress=seen).state
    assert all(rec["cond"] <= 1.0 / solver.RCOND_MIN for rec in state.records)
    k = next(k for k, s in enumerate(step_log) if s.t_new == 0.0)
    ts = [rec["t"] for rec in state.records]
    nodes = ts[ts.index(step_log[k].t) - 1 :][:2] + [state.t]
    assert max(nodes) <= solver.T_TIGHT
    assert all(ratios[t] <= 1.0 for t in ratios if t <= solver.T_TIGHT)
    # and the loose stop is at work above T_TIGHT
    assert max(ratios[t] for t in ratios if t > solver.T_TIGHT) > 1.0


def test_flat_endgame_solves_with_lu(polygon64_metric, monkeypatch):
    # The doubled 64-gon's path ends at states whose J fails RCOND_MIN,
    # and a predictor from one of them would solve with its LU factor; off
    # the two collapsing directions (the in-plane apex translations) that
    # agrees with a truncated SVD solve.
    endgame = []  # (factor, J) of every accepted state failing RCOND_MIN

    def collect(state):
        if 1.0 / state.factor.cond < solver.RCOND_MIN:
            endgame.append((state.factor, dense_jacobian(state.P)))

    honest_svd = np.linalg.svd
    svd_calls = []

    def counted_svd(*args, **kw):
        svd_calls.append(1)
        return honest_svd(*args, **kw)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    result = solve_path(polygon64_metric, progress=collect)
    monkeypatch.undo()
    assert svd_calls == []
    assert any(rec["cond"] > 1.0 / solver.RCOND_MIN for rec in result.state.records)
    assert endgame

    kappa1 = result.kappa1
    for factor, J in endgame:
        _, _, vt = np.linalg.svd(J)
        gauge = vt[-2:]
        x_lu = factor.solve(kappa1)
        x_lu = x_lu - gauge.T @ (gauge @ x_lu)
        x_svd = _svd_solve(J, kappa1, drop=2)
        assert np.linalg.norm(x_lu - x_svd) <= 1e-10 * np.linalg.norm(x_svd)
    # exactly two singular values collapse at the flat limit
    sv = np.linalg.svd(endgame[-1][1], compute_uv=False)
    assert sv[-2] / sv[0] < 1e-9 < 1e-3 < sv[-3] / sv[0]


class _Landing(Exception):
    pass


def _landing_origin(metric):
    """A copy of the state the path lands from, taken before the landing."""
    honest = solver.step

    def stop(state, t_new):
        if t_new == 0.0:
            raise _Landing(copy.deepcopy(state))
        return honest(state, t_new)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "step", stop)
        with pytest.raises(_Landing) as caught:
            solve_path(metric)
    return caught.value.args[0]


def test_pinned_band_is_the_dense_pinning(cube_metric):
    # the rows and columns of the pinned vertices become the identity's;
    # every other entry is J's
    state = start_state(cube_metric)
    J = assemble(state.P, state.order)
    dense = unpack_band(J)
    pins = np.array([5, 0, 3])
    solver._pin_jacobian(J, pins)
    dense[pins] = 0.0
    dense[:, pins] = 0.0
    dense[pins, pins] = 1.0
    np.testing.assert_array_equal(unpack_band(J), dense)


def test_landing_pins_span_the_gauge(cube_metric):
    # The pins are three rows of the apex-translation gauge that span it:
    # Z, the three smallest right singular vectors of the dense J at the
    # landing's origin, has a well-conditioned 3 x 3 block on them, and
    # the landed factor is well conditioned.
    state = _landing_origin(cube_metric)
    pins = solver._pins(state.factor)
    assert sorted(set(pins.tolist())) == sorted(pins.tolist())
    _, sigma, vt = np.linalg.svd(dense_jacobian(state.P))
    assert sigma[-3] < 1e-2 * sigma[-4]
    block = np.linalg.svd(vt[-3:, pins], compute_uv=False)
    assert block[-1] > 0.3 * block[0]
    assert step(state, 0.0).accepted
    assert state.factor.cond < 1.0 / solver.RCOND_MIN


def test_pinned_jacobian_singular_outside_the_gauge_rejects(cube_metric, monkeypatch):
    # Pins whose gauge rows are dependent leave the pinned J singular at
    # t = 0 along an apex translation that moves none of them.  On the
    # cube, seen from its centre, two antipodal vertices have opposite
    # unit vectors, so with a third vertex they span only a plane of the
    # three translations.  The factor then fails RCOND_MIN, as any
    # corrector's would, and the landing is rejected.
    state = _landing_origin(cube_metric)
    _, _, vt = np.linalg.svd(dense_jacobian(state.P))
    z = vt[-3:].T
    triples = [np.array(c) for c in itertools.combinations(range(len(z)), 3)]
    dependent = min(triples, key=lambda c: abs(np.linalg.det(z[c])))
    assert abs(np.linalg.det(z[dependent])) < 1e-6
    monkeypatch.setattr(solver, "_pins", lambda factor: dependent)
    result = step(state, 0.0)
    assert (result.accepted, result.reason) == (False, "curvature Jacobian is numerically singular")
    assert state.t > 0.0 and state.steps_rejected == 1


def test_landing_stops_on_the_update_not_the_floor():
    # On the random hull n = 2560 (seed [1, 2560]) the landing's prediction
    # already meets the Newton tolerance, yet its radii leave the
    # embedding's sides off by over 1e-10 of the diameter.  The landing
    # takes one update anyway, and stops once that update is small: the
    # landed sides are exact to rounding level.
    origin = _landing_origin(build_metric(hull.random_sphere_development(2560, seed=[1, 2560])[0]))
    tangent = origin.factor.solve(origin.kappa1)
    r = solver._hermite(*origin.previous, origin.t, origin.r, tangent, 0.0)
    mesh = origin.mesh.copy()
    weighted_delaunay(mesh, r * r)
    predicted = embed.place_faces(GeneralizedPolytope(mesh, r))
    assert chord_error(mesh, predicted.vertices) > 1e-10 * predicted.diameter

    result = step(origin, 0.0)
    assert result.accepted and result.predictor_residual <= 1.0
    assert result.newton_iters == 2
    landed = embed.place_faces(origin.P)
    assert chord_error(origin.mesh, landed.vertices) <= 1e-12 * landed.diameter


def test_unusable_jacobian_at_acceptance(cube_metric, monkeypatch):
    """A Jacobian that cannot be assembled at the state a step would
    accept rejects the step with the error's name and message, and leaves
    the state as it was, factor included: every accepted state carries
    its Jacobian.  The same step is accepted once assembly works again."""
    state = start_state(cube_metric)
    t_new = 1.0 - solver.DT_INIT
    honest = jacobian.assemble
    calls = []

    def counted(P, order):
        calls.append(None)
        return honest(P, order)

    monkeypatch.setattr(jacobian, "assemble", counted)
    assert step(copy.deepcopy(state), t_new).accepted
    acceptance = len(calls)  # the last assembly of an accepted step
    calls.clear()

    def fail_at_acceptance(P, order):
        calls.append(None)
        if len(calls) == acceptance:
            raise StepReductionError("forced at acceptance")
        return honest(P, order)

    t, r, records, factor = state.t, state.r.copy(), list(state.records), state.factor
    monkeypatch.setattr(jacobian, "assemble", fail_at_acceptance)
    result = step(state, t_new)
    assert not result.accepted
    assert result.reason == "StepReductionError: forced at acceptance"
    assert len(calls) == acceptance
    assert state.t == t and np.array_equal(state.r, r)
    assert state.records == records and state.factor is factor
    assert (state.steps_accepted, state.steps_rejected) == (0, 1)
    monkeypatch.setattr(jacobian, "assemble", honest)
    assert step(state, t_new).accepted
    assert state.t == t_new and state.factor is not factor


def test_rejected_jump_falls_back_to_halving(cube_metric, monkeypatch, request):
    # A rejected landing halves its step to KAPPA_STOP, as any rejection
    # does, but leaves the path clean: it keeps the Hermite predictor and
    # its wide steps, does not try the landing again, and ends at
    # KAPPA_STOP, the end of a path that cannot land.
    t_stop = solver.KAPPA_STOP
    honest = solver.step

    def reject_first_jump(state, t_new):
        if t_new == 0.0 and state.steps_rejected == 0:
            return solver._reject(state, "forced rejection")
        return honest(state, t_new)

    monkeypatch.setattr(solver, "step", reject_first_jump)
    log = request.getfixturevalue("step_log")
    state = solve_path(cube_metric).state
    assert state.steps_rejected == 1
    assert (state.stop, state.t) == ("kappa_stop", t_stop)
    k = next(k for k, s in enumerate(log) if not s.accepted)
    jump = log[k]
    assert (jump.t_new, jump.reason) == (0.0, "forced rejection")
    assert jump.t <= solver.T_JUMP < log[k - 1].t
    assert jump.hermite and jump.clean
    assert all(s.accepted for s in log[:k])
    after = log[k + 1 :]
    assert len(after) >= 5
    assert after[0].t == jump.t
    assert after[0].t_new == jump.t - 0.5 * (jump.t - t_stop)
    assert all(s.accepted and s.hermite and s.clean for s in after)
    # t still falls by up to 4x per step: the landing leaves the cap alone
    assert any(s.t_new < 0.5 * s.t for s in after)
    assert all(s.t_new >= (1.0 - solver.DT_CAP_CLEAN) * s.t for s in after)
    assert [s.t_new for s in after].count(t_stop) == 1
    assert after[-1].t_new == t_stop


def test_flat_limit_jumps_at_most_once(request):
    # The doubled 24-gon reaches T_JUMP without a rejection, so it tries
    # the landing once; the attempt is rejected, and the path
    # stays clean, with the Hermite predictor and steps that cut t by up
    # to 4x, until its folds classify.
    metric = build_metric(catalog.doubly_covered_polygon(24))
    untraced = solve_path(metric).state
    log = request.getfixturevalue("step_log")
    state = solve_path(metric).state
    assert state.records == untraced.records
    jumps = [k for k, s in enumerate(log) if s.t_new == 0.0]
    assert len(jumps) == 1
    k = jumps[0]
    jump = log[k]
    assert jump.t <= solver.T_JUMP < log[k - 1].t
    assert jump.hermite and jump.clean and not jump.accepted
    assert all(s.accepted for s in log[:k])
    after = log[k + 1 :]
    assert after and all(s.accepted and s.hermite and s.clean for s in after)
    assert any(s.t_new < 0.5 * s.t for s in after)
    assert state.steps_rejected == 1
    assert state.stop == "folds"
    assert float(np.abs(state.P.kappa).max()) < 1e-4


@pytest.mark.parametrize("n", [98, 105])
def test_rejected_wide_step_keeps_the_path_clean(n, step_log):
    # These polygons reject one step that cuts t by more than half, before
    # their landing.  Like the landing, it leaves the path clean, with its
    # Hermite predictor; unlike the landing, it caps every later step at
    # half of t.  The landing is still tried, and rejected.
    state = solve_path(build_metric(catalog.doubly_covered_polygon(n))).state
    rejected = [k for k, s in enumerate(step_log) if not s.accepted]
    assert len(rejected) == 2
    k, j = rejected
    wide, jump = step_log[k], step_log[j]
    assert wide.t_new < 0.5 * wide.t and wide.t_new != 0.0
    assert wide.hermite and wide.clean
    assert jump.t_new == 0.0 and jump.t <= solver.T_JUMP
    later = step_log[k + 1 :]
    assert all(s.hermite and s.clean for s in later)
    assert all(s.t_new >= 0.5 * s.t for s in later if s is not jump)
    assert state.stop == "folds"


def test_narrow_rejection_ends_the_clean_path(step_log):
    # The 1:1:20 cigar's first step, 1/64 below t = 1, finds no pyramid.
    # A rejected step no wider than half of t ends the clean path: it
    # predicts by Euler steps for good, caps steps at half of t and grows
    # dt by GROWTH after a step of at most 3 iterates.  It tries the
    # landing at its first state at or below T_JUMP, and again each time t
    # has halved since its last attempt.
    dev, _, _ = thin_hull(40, (1.0, 1.0, 20.0), seed=[3, 40])
    state = solve_path(build_metric(dev)).state
    assert state.stop == "landed"
    first = step_log[0]
    assert (first.t, first.t_new, first.accepted) == (1.0, 1.0 - solver.DT_INIT, False)
    assert first.reason.startswith("PyramidError: no apex pyramid")
    assert first.hermite is False and first.clean is True
    assert all(not s.hermite and not s.clean for s in step_log[1:])
    # today's rule, replayed over the log
    t_stop = solver.KAPPA_STOP
    dt = 0.5 * solver.DT_INIT
    tried = math.inf
    for s in step_log[1:]:
        dt_eff = min(dt, solver.DT_CAP * s.t)
        if s.t <= solver.T_JUMP and s.t <= 0.5 * tried:
            tried = s.t
            dt_eff = s.t - t_stop
            assert s.t_new == 0.0
        else:
            assert s.t_new == max(s.t - dt_eff, t_stop)
        if not s.accepted:
            dt = 0.5 * dt_eff
        elif s.iterates <= 3:
            dt *= solver.GROWTH
    assert sum(not s.accepted for s in step_log) == state.steps_rejected
    landings = [s for s in step_log if s.t_new == 0.0]
    assert landings == [step_log[-1]] and landings[0].accepted


def test_unclean_path_retries_the_landing_once_t_halves(step_log):
    # The 1000:1 disc's path is unclean from its first step.  Its first
    # landing, from the first state at or below T_JUMP, is rejected: the
    # residual fails to fall.  The rejection halves the step to
    # KAPPA_STOP, and the next attempt comes once t has halved since.
    dev, _, _ = thin_hull(40, (1000.0, 1000.0, 1.0), seed=[3, 40])
    state = solve_path(build_metric(dev)).state
    assert state.stop == "landed"
    k = [k for k, s in enumerate(step_log) if s.t_new == 0.0]
    assert len(k) == 2
    first, second = step_log[k[0]], step_log[k[1]]
    assert not first.accepted and first.reason.startswith("no convergence in")
    assert first.t <= solver.T_JUMP < step_log[k[0] - 1].t
    after = step_log[k[0] + 1]
    assert (after.t, after.t_new) == (first.t, first.t - 0.5 * (first.t - solver.KAPPA_STOP))
    assert second.accepted and second is step_log[-1]
    assert second.t <= 0.5 * first.t < step_log[k[1] - 1].t
    assert not first.clean and not second.clean


def test_hermite_predicts_closer_than_euler(cube_metric, monkeypatch):
    # On every clean step of the cube's path, the cubic through the last
    # two accepted states lands nearer the accepted radii than the Euler
    # step from the same state.
    honest = solver.step
    gaps = []

    def compare(state, t_new):
        if state.previous is None:
            return honest(state, t_new)
        tangent = state.factor.solve(state.kappa1)
        euler = state.r - (state.t - t_new) * tangent
        hermite = solver._hermite(*state.previous, state.t, state.r, tangent, t_new)
        result = honest(state, t_new)
        assert result.accepted
        gaps.append((np.abs(hermite - state.r).max(), np.abs(euler - state.r).max()))
        return result

    monkeypatch.setattr(solver, "step", compare)
    state = solve_path(cube_metric).state
    assert state.steps_rejected == 0
    assert len(gaps) == state.steps_accepted - 1
    assert all(h < e for h, e in gaps), gaps


@pytest.mark.parametrize(
    "name, bound",
    [("tetrahedron", 44), ("cube", 37), ("hull640", 28)],
    ids=["tetrahedron", "cube", "hull640"],
)
def test_newton_iterates_per_path(name, bound, tetra_path, cube_path):
    # 34, 27 and 22 iterates today, and 42, 35 and 26 while every state
    # converged to the Newton tolerance.  Euler predictors with steps grown
    # by iterate counts took 108, 83 and 59; the Hermite predictor with
    # those steps 53, 45 and 38.
    if name == "hull640":
        dev, _, _ = hull.random_sphere_development(640, seed=[1, 640])
        state = solve_path(build_metric(dev)).state
    else:
        state = {"tetrahedron": tetra_path, "cube": cube_path}[name].result.state
    assert sum(rec["newton_iters"] for rec in state.records) <= bound


@pytest.mark.parametrize("kappa_stop", [1e-4, 1e-5, 1e-6])
def test_jacobian_nondegenerate_near_closure(kappa_stop, tetra_metric, cube_metric, monkeypatch):
    # a07 checks the states a path visits at t >= 1e-6; a clean path
    # lands from about 1e-3 and visits none in between, so check the end
    # states of paths that do not land (T_JUMP = 0) and stop there
    monkeypatch.setattr(solver, "KAPPA_STOP", kappa_stop)
    monkeypatch.setattr(solver, "T_JUMP", 0.0)
    metrics = [tetra_metric, cube_metric]
    for n, seed in (HULL_CASES[6], HULL_CASES[-2]):
        dev, _, _ = hull.random_sphere_development(n, seed=seed)
        metrics.append(build_metric(dev))
    for metric in metrics:
        result = solve_path(metric)
        assert (result.state.stop, result.state.t) == ("kappa_stop", kappa_stop)
        sv = np.linalg.svd(dense_jacobian(result.polytope), compute_uv=False)
        assert sv[-1] > 1e-10 * sv[0], (metric.n_vertices, kappa_stop)


# -- the banded Jacobian against a dense oracle ---------------------------

_EPS = np.finfo(float).eps


def _check_band_factor(P, order, rhs, ill=False):
    """The factor of the banded J in ``order`` against the dense oracle J:
    ||J||_1 to the rounding of its sums, the condition estimate
    within LAPACK's factor n of cond_1(J), and, unless ``ill`` (J fails
    RCOND_MIN), the solve against a dense LU solve.  Returns the
    relative gap of the solves."""
    J = dense_jacobian(P)
    n = len(rhs)
    band = assemble(P, order)
    k = band.k
    factor = JacobianFactor.of(band)
    # two orders of summing m nonnegative terms differ by at most (m-1) eps
    m = int(max((J != 0).sum(axis=0).max(), (J != 0).sum(axis=1).max()))
    norm_1 = float(np.abs(J).sum(axis=0).max())
    assert factor.norm == pytest.approx(norm_1, rel=(m - 1) * _EPS)
    # ||J||_1 enters the estimate as a factor; gbcon with the oracle's
    # ||J||_1 gives the same estimate to two more roundings
    rcond, _ = lapack.dgbcon(k, k, factor.lu, factor.piv, norm_1)
    assert factor.cond == pytest.approx(1.0 / rcond, rel=(m + 1) * _EPS)
    cond_1 = np.linalg.cond(J, 1)
    assert cond_1 / n <= factor.cond <= n * cond_1
    if ill:
        return None
    x, x_dense = factor.solve(rhs), np.linalg.solve(J, rhs)
    gap = np.linalg.norm(x - x_dense) / np.linalg.norm(x_dense)
    # two backward-stable solves of one system agree to about cond * eps
    assert gap <= max(1e-12, 8.0 * factor.cond * _EPS)
    return gap


@pytest.mark.parametrize("n", [20, 160, 640])
def test_band_factor_matches_dense_oracle_on_hulls(n):
    for seed in (1, 2, 3):
        dev, _, _ = hull.random_sphere_development(n, seed=seed)
        state = start_state(build_metric(dev))
        assert _check_band_factor(state.P, state.order, state.kappa1) <= 1e-12


_PATH_CASES = {
    "tetrahedron": catalog.tetrahedron,
    "cube": catalog.cube,
    "twisted6": lambda: catalog.twisted_double_polygon(6),
    "twisted12": lambda: catalog.twisted_double_polygon(12),
    "twisted24": lambda: catalog.twisted_double_polygon(24),
    "doubled-square": lambda: catalog.doubly_covered_polygon(4),
    "doubled-64": lambda: catalog.doubly_covered_polygon(64),
}


@pytest.mark.parametrize("name", list(_PATH_CASES))
def test_band_factor_matches_dense_oracle_along_paths(name):
    # The states at t > 0; the landed state of a 3-D path has a J of
    # corank 3 (a08) and keeps the landing's pinned factor instead.
    states = []  # (P, order, kappa1, J fails RCOND_MIN)

    def collect(state):
        if state.t > 0.0:
            ill = 1.0 / state.factor.cond < solver.RCOND_MIN
            states.append((state.P, state.order, state.kappa1, ill))

    end = solve_path(build_metric(_PATH_CASES[name]()), progress=collect).state
    for P, order, kappa1, ill in states:
        _check_band_factor(P, order, kappa1, ill)
    if name == "doubled-64":  # its path ends at a state whose J fails RCOND_MIN
        assert states[-1][3]
    if end.stop == "landed":
        assert end.factor.cond < 1.0 / solver.RCOND_MIN
    else:
        assert end.stop == "folds" and name.startswith("doubled")


def _half_bandwidth(mesh, order):
    """max |pos(i) - pos(j)| over the mesh's edges, from its corner table."""
    pos = np.argsort(order)
    f, s = np.divmod(mesh.edges(), 3)
    tail = mesh.vert[f, (s + 1) % 3]
    head = mesh.vert[f, (s + 2) % 3]
    return int(np.abs(pos[tail] - pos[head]).max())


@pytest.mark.parametrize("n, seed", [(6, 2), (10, 1)])
def test_path_flip_widens_the_band(n, seed):
    # These hulls flip edges along the path, and some flip joins two
    # vertices further apart in the start state's order than any edge of
    # the start state did: J's band widens, and the solve stays exact.
    dev, _, _ = hull.random_sphere_development(n, seed=seed)
    states = []  # (factor, P, half-bandwidth of the state's mesh)

    def collect(state):
        if state.t > 0.0:  # the landed state keeps a pinned factor
            states.append((state.factor, state.P, _half_bandwidth(state.mesh, state.order)))

    # about 30 steps are needed
    result = solve_path(build_metric(dev), max_steps=250, progress=collect)
    assert result.state.stop == "landed"
    assert result.state.factor.cond < 1.0 / solver.RCOND_MIN
    assert result.events
    k0 = states[0][2]
    widened = [(factor, P, k) for factor, P, k in states if k > k0]
    assert widened
    for factor, P, k in states:
        assert factor.k == k
    for factor, P, k in widened:
        J = dense_jacobian(P)
        x = factor.solve(result.kappa1)
        residual = np.abs(J @ x - result.kappa1).max()
        assert residual <= (2 * k + 1) * _EPS * (np.abs(J) @ np.abs(x)).max()


def test_band_order_is_a_deterministic_permutation(tetra_metric, cube_metric):
    metrics = [tetra_metric, cube_metric, build_metric(catalog.twisted_double_polygon(12))]
    metrics += [build_metric(hull.random_sphere_development(40, seed=s)[0]) for s in (1, 2)]
    for metric in metrics:
        order = start_state(metric).order
        np.testing.assert_array_equal(np.sort(order), np.arange(metric.n_vertices))
        np.testing.assert_array_equal(start_state(metric).order, order)


def test_band_is_narrow_on_large_hull():
    dev, _, _ = hull.random_sphere_development(640, seed=[1, 640])
    state = start_state(build_metric(dev))
    k = assemble(state.P, state.order).k
    assert k == _half_bandwidth(state.mesh, state.order)
    assert k <= 0.15 * 640


def test_solve_reports_are_identical_across_processes(tmp_path):
    # a hull whose path flips and widens the band; each run in its own
    # process, so the vertex order cannot lean on anything left in memory
    dev, _, _ = hull.random_sphere_development(10, seed=1)
    src = tmp_path / "hull10.json"
    src.write_text(dev.to_json())
    outs = []
    for tag in ("a", "b"):
        report = tmp_path / f"report_{tag}.json"
        out = tmp_path / f"mesh_{tag}.obj"
        subprocess.run(
            [sys.executable, "-m", "polyforge.cli", "solve", str(src),
             "--out", str(out), "--report", str(report)],
            check=True,
            capture_output=True,
        )
        outs.append((report.read_bytes(), out.read_bytes()))
    assert outs[0] == outs[1]
    assert json.loads(outs[0][0])["flips"] > 0
