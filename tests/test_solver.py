import copy
import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import lapack

from conftest import HULL_CASES, thin_hull
from oracles import band_of, dense_jacobian, unpack_band, validate_polytope
from polyforge import catalog, embed, hull, jacobian, solver
from polyforge.errors import SolverAbort, StepReductionError
from polyforge.jacobian import assemble
from polyforge.polytope import GeneralizedPolytope
from polyforge.solver import (
    JacobianFactor,
    SolverOptions,
    choose_initial_radius,
    solve_path,
    start_state,
    step,
)
from polyforge.surface import build_metric
from polyforge.triangulation import CornerMesh, badness_scan


def test_options_validate_stopping_point():
    with pytest.raises(ValueError):
        SolverOptions(kappa_stop=0.5)
    with pytest.raises(ValueError):
        SolverOptions(kappa_stop=0.0)


def test_initial_radius_is_strictly_admissible(tetra_metric):
    mesh = CornerMesh.from_metric(tetra_metric)
    radius, P = choose_initial_radius(tetra_metric, mesh)
    assert radius >= mesh.ell.max()
    kappa = P.kappa
    assert np.all(kappa > 0.0)
    assert np.all(kappa < tetra_metric.deficits)
    assert kappa.sum() - kappa.max() > 2.0 * math.pi


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
    assert not state.floor_stop
    assert state.t == pytest.approx(1e-9)
    # the regular tetrahedron keeps its symmetry all the way down to the
    # circumradius of the unit-edge body
    assert np.ptp(result.r) <= 1e-6
    np.testing.assert_allclose(result.r, math.sqrt(3.0 / 8.0), atol=1e-6)
    # final curvature matches the target t * kappa(1)
    target = state.t * result.kappa1
    np.testing.assert_allclose(result.polytope.kappa, target, atol=1e-8)


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
    result = solve_path(
        tetra_metric,
        SolverOptions(progress=lambda state: conds.append(state.factor.cond)),
    )
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
    # DT_INIT halved until it falls below DT_MIN
    assert dump["steps_rejected"] == math.ceil(math.log2(solver.DT_INIT / solver.DT_MIN))
    json.dumps(dump)


def test_progress_callback_sees_every_record(tetra_metric):
    seen = []
    result = solve_path(
        tetra_metric, SolverOptions(progress=lambda state: seen.append(state.records[-1]))
    )
    assert seen == result.state.records
    assert {"t", "kappa_inf", "flips_so_far", "newton_iters", "cond"} <= set(
        seen[0]
    )


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

    def near_pi(mesh, r, f, s):
        theta = honest(mesh, r, f, s)
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
    "axes",
    [(1.0, 1.0, 20.0), (100.0, 100.0, 1.0), (1000.0, 1000.0, 1.0)],
    ids=["cigar-1-1-20", "disc-100-1", "disc-1000-1"],
)
def test_thin_hulls_flip_along_the_path_and_reconstruct(axes):
    # Thin bodies cross hundreds of triangulation walls, so their paths
    # run many flip rounds; the result is held to a04's congruence bound.
    dev, points, corner_point = thin_hull(40, axes, seed=[3, 40])
    metric = build_metric(dev)
    result = solve_path(metric)
    assert len(result.events) >= 150
    e = embed.place_faces(result.polytope)
    original = np.empty_like(e.vertices)
    original[metric.corner_vertex.ravel()] = points[corner_point.ravel()]
    rms, _ = embed.congruence_check(e.vertices, original)
    assert rms <= 1e-4 * e.diameter


def test_jacobian_continuous_across_cocircular_wall(cube_metric):
    # two triangulations of the same slightly inflated cube, differing by
    # one flat diagonal, give the same curvature Jacobian
    mesh1 = CornerMesh.from_metric(cube_metric)
    (f, s), vals = badness_scan(mesh1, np.ones(8))
    diag = next((fe, se) for fe, se, v in zip(f, s, vals) if abs(v) <= 1e-9)
    r = np.full(8, 1.02 * math.sqrt(3.0) / 2.0)
    J1 = dense_jacobian(validate_polytope(GeneralizedPolytope(mesh1, r)))
    mesh2 = mesh1.copy()
    mesh2.flip(*diag)
    J2 = dense_jacobian(GeneralizedPolytope(mesh2, r))
    assert np.abs(J1 - J2).max() <= 1e-6 * np.abs(J1).max()


def test_flat_limit_stops_at_precision_floor(square_path):
    state = square_path.result.state
    assert state.floor_stop
    # the doubled square collapses onto its 2d body: every radius ends at
    # the planar distance to the apex point, below any honest tolerance
    assert float(np.abs(state.P.kappa).max()) < 1e-4


def test_abort_carries_state_dump(cube_metric):
    with pytest.raises(SolverAbort) as err:
        solve_path(cube_metric, SolverOptions(max_steps=1))
    dump = err.value.state_dump
    assert dump["reason"]
    assert {"t", "r", "mesh", "events", "flips"} <= set(dump)
    json.dumps(dump)


def test_twisted_polygon_converges():
    metric = build_metric(catalog.twisted_double_polygon(4))
    result = solve_path(metric)
    assert result.state.flips > 0  # the fan start is not weighted-Delaunay
    assert not result.state.floor_stop
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
    result = solve_path(metric, SolverOptions(max_steps=250))
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
    # ||J||_inf bounds sigma_max from both sides for a symmetric J
    assert sigma[0] <= factor.norm_inf <= math.sqrt(n) * sigma[0]
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
    assert (state.factor.cond, state.factor.norm_inf) == (factor.cond, factor.norm_inf)


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


def test_factor_norms_are_row_and_column_sums():
    # both norms come from the band entries; they must equal the row sums
    # of |J| and of |J^T| on a matrix that is not symmetric, up to the
    # rounding of a sum of 2k + 1 nonnegative terms in another order
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
    assert factor.norm_inf == pytest.approx(float(np.abs(J).sum(axis=1).max()), rel=rel)
    norm_1 = float(np.abs(J.T).sum(axis=1).max())
    rcond, _ = lapack.dgbcon(k, k, factor.lu, factor.piv, norm_1)
    assert factor.cond == pytest.approx(1.0 / rcond, rel=rel)


@pytest.mark.parametrize("name", ["tetra_metric", "cube_metric", "hull40"])
def test_clean_path_jumps_to_kappa_stop(name, request):
    if name == "hull40":
        metric = build_metric(hull.random_sphere_development(40, seed=3)[0])
    else:
        metric = request.getfixturevalue(name)
    state = solve_path(metric).state
    ts = [rec["t"] for rec in state.records]
    assert state.steps_rejected == 0
    # the first state at or below T_JUMP steps to kappa_stop exactly
    assert ts[-1] == SolverOptions().kappa_stop
    assert ts[-2] <= solver.T_JUMP
    assert all(t > solver.T_JUMP for t in ts[:-2])
    # no accepted state fails RCOND_MIN, so the endgame is never entered
    assert all(rec["cond"] <= 1.0 / solver.RCOND_MIN for rec in state.records)


def test_flat_endgame_solves_with_lu(square_metric, monkeypatch):
    # The doubled square's path enters the endgame; Newton keeps solving
    # with the LU factor there, which off the two collapsing directions
    # (the in-plane apex translations) agrees with a truncated SVD solve.
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
    result = solve_path(square_metric, SolverOptions(progress=collect))
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


class _Endgame(Exception):
    pass


def _endgame_state(metric):
    """The first accepted state of the path whose own J fails RCOND_MIN."""

    def stop(state):
        if 1.0 / state.factor.cond < solver.RCOND_MIN:
            raise _Endgame(state)

    with pytest.raises(_Endgame) as caught:
        solve_path(metric, SolverOptions(progress=stop))
    return caught.value.args[0]


def test_singular_jacobian_rejects_in_endgame(square_metric, monkeypatch):
    # the endgame waives RCOND_MIN but not an exactly singular J, whose
    # LU solve would be inf or NaN
    state = _endgame_state(square_metric)
    t = state.t
    # a step whose honest corrector takes a second iterate, so that the
    # zeroed J below is assembled inside Newton (a 0.9 t step converges at
    # its first iterate and assembles no J before acceptance)
    t_new = 0.75 * t
    assert step(copy.deepcopy(state), t_new).newton_iters >= 2
    calls = []

    def singular(P, order):
        calls.append(None)
        return band_of(np.zeros((P.n_vertices,) * 2), order)

    monkeypatch.setattr(jacobian, "assemble", singular)
    result = step(state, t_new)
    assert not result.accepted
    assert result.reason == "curvature Jacobian is numerically singular"
    # one assembly, by the first corrector iterate: a rejected step never
    # reaches the assembly at acceptance
    assert len(calls) == 1
    # the predictor checks the accepted state's factor the same way
    state.factor = JacobianFactor.of(band_of(np.zeros((len(state.r),) * 2), state.order))
    result = step(state, 0.9 * t)
    assert result.reason == "curvature Jacobian is numerically singular"
    assert state.t == t


def test_unusable_jacobian_at_acceptance(cube_metric, monkeypatch):
    """A Jacobian that cannot be assembled at an accepted state keeps the
    state, leaves it without a factor, and makes the next step reject.

    Such a state is never at the floor.  Before the factor became the
    state's one Jacobian field, the floor check kept using the previous
    state's ||J||_inf here."""
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

    monkeypatch.setattr(jacobian, "assemble", fail_at_acceptance)
    assert step(state, t_new).accepted
    assert len(calls) == acceptance
    assert state.t == t_new
    assert state.factor is None
    assert state.records[-1]["cond"] is None
    assert not solver._at_floor(state)
    monkeypatch.setattr(jacobian, "assemble", honest)
    result = step(state, 0.5 * t_new)
    assert not result.accepted
    assert result.reason.endswith("no Jacobian available at the current state")


def test_rejected_jump_falls_back_to_halving(cube_metric, monkeypatch):
    t_stop = SolverOptions().kappa_stop
    honest = solver.step
    attempts = []  # (t, t_new, rejected so far)

    def reject_first_jump(state, t_new):
        attempts.append((state.t, t_new, state.steps_rejected))
        if t_new == t_stop and state.steps_rejected == 0:
            return solver._reject(state, "forced rejection")
        return honest(state, t_new)

    monkeypatch.setattr(solver, "step", reject_first_jump)
    state = solve_path(cube_metric).state
    assert state.steps_rejected == 1
    assert state.t == t_stop
    jump = next(k for k, (_, _, rejected) in enumerate(attempts) if rejected)
    t_jump, t_new, _ = attempts[jump - 1]
    assert t_new == t_stop and t_jump <= solver.T_JUMP
    after = attempts[jump:]
    assert len(after) > 10
    # kappa_stop is tried once more, when halving comes within a factor 2
    # of it; every attempt before that at most halves t
    assert [t_new for _, t_new, _ in after].count(t_stop) == 1
    t_last, t_new_last, _ = after[-1]
    assert t_new_last == t_stop and t_last < 2.0 * t_stop
    for t, t_new, _ in after[:-1]:
        assert 0.5 * t <= t_new < t


def test_flat_limit_jumps_at_most_once(square_metric, square_path, monkeypatch):
    # The doubled square reaches T_JUMP without a rejection, so it tries
    # the jump to kappa_stop once; the attempt is rejected, but the path
    # stays clean and keeps the Hermite predictor after it.
    honest = solver.step
    steps = []  # (t, t_new, Hermite predictor, clean after the step, accepted)

    def traced(state, t_new):
        t, hermite = state.t, state.previous is not None
        result = honest(state, t_new)
        steps.append((t, t_new, hermite, state.clean, result.accepted))
        return result

    monkeypatch.setattr(solver, "step", traced)
    state = solve_path(square_metric).state
    assert [rec["t"] for rec in state.records] == [
        rec["t"] for rec in square_path.result.state.records
    ]
    # every step but a jump at most halves t
    jumps = [k for k, (t, t_new, *_) in enumerate(steps) if t_new < 0.5 * t]
    assert len(jumps) == 1
    k = jumps[0]
    t, t_new, hermite, clean, accepted = steps[k]
    assert t_new == SolverOptions().kappa_stop and t <= solver.T_JUMP
    assert hermite and clean and not accepted
    assert all(accepted for *_, accepted in steps[:k])
    assert steps[k + 1][2:] == (True, True, True)
    # later rejections return the path to Euler steps for good
    first = next(j for j in range(k + 1, len(steps)) if not steps[j][4])
    assert not any(hermite or clean for _, _, hermite, clean, _ in steps[first + 1 :])
    assert state.floor_stop
    assert float(np.abs(state.P.kappa).max()) < 1e-4


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
    "name, bound", [("tetrahedron", 65), ("cube", 55), ("hull640", 45)]
)
def test_newton_iterates_per_path(name, bound, tetra_path, cube_path):
    # Euler predictors took 108, 83 and 59 iterates on these paths
    if name == "hull640":
        dev, _, _ = hull.random_sphere_development(640, seed=[1, 640])
        state = solve_path(build_metric(dev)).state
    else:
        state = {"tetrahedron": tetra_path, "cube": cube_path}[name].result.state
    assert sum(rec["newton_iters"] for rec in state.records) <= bound


@pytest.mark.parametrize("kappa_stop", [1e-4, 1e-5, 1e-6])
def test_jacobian_nondegenerate_near_closure(kappa_stop, tetra_metric, cube_metric):
    # a07 checks the states a path visits at t >= 1e-6; a clean path
    # jumps from about 1e-3 to kappa_stop and visits none in between, so
    # check the end states of paths stopped there
    metrics = [tetra_metric, cube_metric]
    for n, seed in (HULL_CASES[6], HULL_CASES[-2]):
        dev, _, _ = hull.random_sphere_development(n, seed=seed)
        metrics.append(build_metric(dev))
    for metric in metrics:
        result = solve_path(metric, SolverOptions(kappa_stop=kappa_stop))
        assert result.state.t == kappa_stop
        sv = np.linalg.svd(dense_jacobian(result.polytope), compute_uv=False)
        assert sv[-1] > 1e-10 * sv[0], (metric.n_vertices, kappa_stop)


# -- the banded Jacobian against a dense oracle ---------------------------

_EPS = np.finfo(float).eps


def _check_band_factor(P, order, rhs, endgame=False):
    """The factor of the banded J in ``order`` against the dense oracle J:
    the two norms to the rounding of their sums, the condition estimate
    within LAPACK's factor n of cond_1(J), and, off the endgame, the
    solve against a dense LU solve.  Returns the relative gap of the
    solves."""
    J = dense_jacobian(P)
    n = len(rhs)
    band = assemble(P, order)
    k = band.k
    factor = JacobianFactor.of(band)
    # two orders of summing m nonnegative terms differ by at most (m-1) eps
    m = int(max((J != 0).sum(axis=0).max(), (J != 0).sum(axis=1).max()))
    A = np.abs(J)
    assert factor.norm_inf == pytest.approx(A.sum(axis=1).max(), rel=(m - 1) * _EPS)
    # ||J||_1 enters the estimate as a factor; gbcon with the oracle's
    # ||J||_1 gives the same estimate to two more roundings
    rcond, _ = lapack.dgbcon(k, k, factor.lu, factor.piv, float(A.sum(axis=0).max()))
    assert factor.cond == pytest.approx(1.0 / rcond, rel=(m + 1) * _EPS)
    cond_1 = np.linalg.cond(J, 1)
    assert cond_1 / n <= factor.cond <= n * cond_1
    if endgame:
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
}


@pytest.mark.parametrize("name", list(_PATH_CASES))
def test_band_factor_matches_dense_oracle_along_paths(name):
    states = []  # (P, order, kappa1, in the endgame)

    def collect(state):
        endgame = 1.0 / state.factor.cond < solver.RCOND_MIN
        states.append((state.P, state.order, state.kappa1, endgame))

    solve_path(build_metric(_PATH_CASES[name]()), SolverOptions(progress=collect))
    for P, order, kappa1, endgame in states:
        _check_band_factor(P, order, kappa1, endgame)
    if name == "doubled-square":  # its path ends in the endgame
        assert states[-1][3]


def _half_bandwidth(mesh, order):
    """max |pos(i) - pos(j)| over the mesh's edges, from its corner table."""
    pos = np.argsort(order)
    f, s = mesh.edges()
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
        states.append((state.factor, state.P, _half_bandwidth(state.mesh, state.order)))

    opts = SolverOptions(progress=collect, max_steps=250)  # about 30 are needed
    result = solve_path(build_metric(dev), opts)
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
