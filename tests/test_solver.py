import copy
import json
import math

import numpy as np
import pytest
from scipy.linalg import lapack

from conftest import HULL_CASES
from oracles import validate_polytope
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


def test_step_rejection_rolls_back(cube_metric, monkeypatch):
    monkeypatch.setattr(solver, "MAX_NEWTON", 1)
    state = start_state(cube_metric)
    r_before = state.r.copy()
    result = step(state, 0.5)
    assert not result.accepted
    assert result.reason
    assert state.t == 1.0
    assert state.steps_rejected == 1
    np.testing.assert_array_equal(state.r, r_before)


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
        if abs(theta - math.pi) > 1e-5:
            raise StepReductionError(f"flip executed at theta {theta!r}")
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


def test_jacobian_continuous_across_cocircular_wall(cube_metric):
    # two triangulations of the same slightly inflated cube, differing by
    # one flat diagonal, give the same curvature Jacobian
    mesh1 = CornerMesh.from_metric(cube_metric)
    (f, s), vals = badness_scan(mesh1, np.ones(8))
    diag = next((fe, se) for fe, se, v in zip(f, s, vals) if abs(v) <= 1e-9)
    r = np.full(8, 1.02 * math.sqrt(3.0) / 2.0)
    J1 = assemble(validate_polytope(GeneralizedPolytope(mesh1, r)))
    mesh2 = mesh1.copy()
    mesh2.flip(*diag)
    J2 = assemble(GeneralizedPolytope(mesh2, r))
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


@pytest.mark.parametrize("n", [10, 12, 16])
def test_doubly_covered_polygon_reaches_flat_limit(n):
    # the dihedral check shares the Newton tolerance's noise floor, so
    # the last bits of a Newton update near the flat body cannot stall it
    metric = build_metric(catalog.doubly_covered_polygon(n))
    result = solve_path(metric, SolverOptions(max_steps=250))
    assert embed.place_faces(result.polytope).degenerate


def _svd_solve(J, rhs, drop=0):
    """Solve through the SVD of J, dropping its ``drop`` smallest singular
    values (a truncated pseudo-inverse when drop > 0)."""
    u, sigma, vt = np.linalg.svd(J)
    keep = len(sigma) - drop
    return vt[:keep].T @ ((u[:, :keep].T @ rhs) / sigma[:keep])


def _check_factor(J, rhs):
    """The LU factor against the SVD of the same Jacobian."""
    n = len(rhs)
    factor = JacobianFactor.of(J)
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
    J = assemble(state.P)
    assert _check_factor(J, state.kappa1) <= 1e5
    # the state keeps the factor of exactly that matrix
    factor = JacobianFactor.of(J)
    np.testing.assert_array_equal(state.factor.lu, factor.lu)
    np.testing.assert_array_equal(state.factor.piv, factor.piv)
    assert (state.factor.cond, state.factor.norm_inf) == (factor.cond, factor.norm_inf)


def test_lu_matches_svd_along_cube_path(cube_path):
    kappa1 = cube_path.result.kappa1
    conds = []
    for t, mesh, r in cube_path.samples:
        P = GeneralizedPolytope(mesh, r)
        conds.append(_check_factor(assemble(P), kappa1))
    assert min(conds) <= 1e5 < max(conds)


def test_singular_jacobian_rejects(cube_metric, monkeypatch):
    state = start_state(cube_metric)
    honest = jacobian.assemble

    def singular(P):
        J = honest(P)
        J[-1] = J[0]
        return J

    monkeypatch.setattr(jacobian, "assemble", singular)
    result = step(state, 1.0 - solver.DT_INIT)
    assert not result.accepted
    assert result.reason.startswith("curvature Jacobian is numerically singular")
    assert state.t == 1.0


def test_factor_norms_are_row_and_column_sums():
    # one |J| pass gives both norms; they must equal the row sums of |J|
    # and of |J^T|, bit for bit, on a matrix that is not symmetric
    rng = np.random.default_rng(7)
    J = rng.standard_normal((50, 50)) * np.exp(rng.uniform(-10.0, 10.0, (50, 50)))
    factor = JacobianFactor.of(J)
    assert factor.norm_inf == float(np.abs(J).sum(axis=1).max())
    lu, _, _ = lapack.dgetrf(J)
    rcond, _ = lapack.dgecon(lu, float(np.abs(J.T).sum(axis=1).max()))
    assert factor.cond == 1.0 / rcond


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
            endgame.append((state.factor, assemble(state.P)))

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
    monkeypatch.setattr(jacobian, "assemble", lambda P: np.zeros((P.n_vertices,) * 2))
    result = step(state, 0.9 * t)
    assert not result.accepted
    assert result.reason == "curvature Jacobian is numerically singular"
    # the predictor checks the accepted state's factor the same way
    state.factor = JacobianFactor.of(np.zeros((len(state.r),) * 2))
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

    def counted(P):
        calls.append(None)
        return honest(P)

    monkeypatch.setattr(jacobian, "assemble", counted)
    assert step(copy.deepcopy(state), t_new).accepted
    acceptance = len(calls)  # the last assembly of an accepted step
    calls.clear()

    def fail_at_acceptance(P):
        calls.append(None)
        if len(calls) == acceptance:
            raise StepReductionError("forced at acceptance")
        return honest(P)

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


def test_flat_limit_never_jumps(square_metric, square_path, monkeypatch):
    # the doubled square rejects steps long before T_JUMP, so the jump
    # rule must leave its path exactly as it is without the rule
    assert square_path.result.state.steps_rejected > 0
    monkeypatch.setattr(solver, "T_JUMP", 0.0)
    result = solve_path(square_metric)
    assert [rec["t"] for rec in result.state.records] == [
        rec["t"] for rec in square_path.result.state.records
    ]


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
        sv = np.linalg.svd(assemble(result.polytope), compute_uv=False)
        assert sv[-1] > 1e-10 * sv[0], (metric.n_vertices, kappa_stop)
