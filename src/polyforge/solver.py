"""Curvature continuation: deform a tall generalized polytope until its
vertex curvatures vanish.

The target path is kappa(t) = t * kappa(1).  Starting from equal radii
large enough that the polytope is valid and strictly inside the good
region, each step predicts with the curvature Jacobian, then corrects
with Newton; the triangulation is re-flipped to weighted Delaunay (q =
r^2) after every Newton update, so combinatorial surgery happens exactly
where the deformation crosses a flat edge.  Failed steps roll back and
halve the step size.

The Hessian stays non-degenerate for every t > 0, so the path r(t) is
smooth and its tangent dr/dt = J^{-1} kappa(1) is continuous, across
flips too.  While the path is clean, the predictor is the cubic Hermite
extrapolation through the last two accepted states and their tangents
(Allgower & Georg, Introduction to Numerical Continuation Methods, ch.
6); the tangent at the current state is the solve an Euler step makes,
so the cubic costs no extra factor or solve.  A path is clean until it
rejects a step other than its one jump attempt; from then on it predicts
by Euler steps.

Steps are capped at half of t, except once: a clean path tries to jump
from the first t <= T_JUMP straight to kappa_stop.  A rejected attempt
halves the step as any rejection does, but leaves the path clean; it is
not tried again.  Paths into a flat limit make that attempt and have it
rejected, then halve down to the end.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import blas, lapack

from . import jacobian
from .errors import (
    FlipError,
    InadmissibleWeightsError,
    PyramidError,
    SolverAbort,
    StepReductionError,
    TriangleError,
)
from .polytope import GeneralizedPolytope, solve_pyramids
from .surface import PolyhedralMetric
from .triangulation import CornerMesh, weighted_delaunay

_REJECTABLE = (
    PyramidError,
    StepReductionError,
    InadmissibleWeightsError,
    TriangleError,
    FlipError,
    np.linalg.LinAlgError,
)

# Linear algebra.  d(kappa)/d(r) is the Hessian of the dual volume:
# symmetric and indefinite (one positive eigenvalue), so every solve goes
# through one LU factor per assembled Jacobian (JacobianFactor).  J has
# about seven nonzeros per row.  start_state numbers the vertices once in
# reverse Cuthill-McKee order (jacobian.band_order); every J is assembled
# permuted to that order in LAPACK band storage and factored by gbtrf, so
# no n x n array is made.  A factor with its condition estimate takes
# 0.11 ms at n = 160, 1.0 ms at n = 640 and 25 ms at n = 2560, against
# 0.36, 13.5 and 390 ms for dense getrf (table in the jacobian module).
# The factor made at acceptance is kept on the state and serves the next
# predictor; each Newton iterate factors its own J once.
#
# Flat-limit endgame.  Degenerate (2-dimensional) limits break Newton in
# two independent ways:
#
#  * curvature noise: a kappa evaluation carries error of order
#    eps * |J| * |r|, and |J| blows up approaching a flat body.  The
#    scale is ||J||_inf, the largest absolute row sum: for a symmetric J
#    it bounds sigma_max(J) from above, at the cost of one pass over J.
#    The Newton tolerance is floored at FLOOR_C times that level (always,
#    not just in the endgame), and the path may terminate once the
#    target itself drops below the floor -- the best representable
#    approximation of the flat body.
#  * kernel collapse: cond(J) grows like 1/t^2 along the path itself,
#    not because a step was too large.  Exactly two singular values
#    collapse: the in-plane translations of the apex, which leave the
#    flat body where it is.  Once the accepted state's own J fails
#    RCOND_MIN, rejecting cannot help, so that endgame waives the bound
#    and rejects only an exactly singular J; it also reads the noise
#    scale off each iterate's J.  The LU solve is kept: off the
#    two-dimensional gauge it agrees with a truncated pseudo-inverse, and
#    along it it only slides the apex within the plane of the body.
#
# Nondegenerate paths normally trip neither mechanism: they jump to
# kappa_stop from t <= T_JUMP, while J is still far from failing
# RCOND_MIN.  A flat limit's jump attempt is rejected, so it reaches the
# endgame; so does a large hull whose jump is rejected and which halves
# on towards the floor, like the random hull n = 2560 (see ``_at_floor``).
FLOOR_C = 64.0
_EPS = float(np.finfo(np.float64).eps)

# Step control.
NEWTON_TOL = 1e-10  # * max(1, |kappa(1)|_inf)
MAX_NEWTON = 8  # Newton iterations per step before it is rejected
RCOND_MIN = 1e-12  # least reciprocal condition estimate Newton accepts
DT_INIT = 1.0 / 64.0
DT_MIN = 1e-12
GROWTH = 1.5  # step growth after an easy step (<= 3 Newton iterations)
RADIUS_CAP = 2.0  # radii may grow to this times the initial radius
SEED_DOUBLINGS = 60  # tries of the equal starting radius
# A clean path tries once to jump from t <= T_JUMP straight to
# kappa_stop; any other rejection returns it to halving for good.
T_JUMP = 1e-3


@dataclass(frozen=True)
class JacobianFactor:
    """Banded LU factor of one curvature Jacobian and the two numbers the
    solver reads off it: LAPACK's 1-norm condition estimate (gbcon,
    within a factor n of the 2-norm condition number) and the noise
    scale ||J||_inf.  J comes permuted to the state's reverse
    Cuthill-McKee order, in the band storage of gbtrf, with
    half-bandwidth k; both norms are taken from the band entries, and
    ``solve`` permutes the right-hand side in and the solution back.  At
    n = 640 (k = 64) this takes 1.0 ms against 13.5 ms for dense getrf
    (table in the jacobian module).  The solver's only linear algebra:
    it serves every predictor and corrector, in the flat-limit endgame
    too."""

    lu: np.ndarray  # gbtrf's band LU
    piv: np.ndarray
    k: int  # half-bandwidth of J
    order: np.ndarray  # the vertex order J was assembled in
    cond: float  # inf for an exactly singular J
    norm_inf: float

    @classmethod
    def of(cls, J):
        """Factor a ``jacobian.BandJacobian`` in place: ``J.ab`` becomes
        the factor, which saves a copy as large as the band."""
        n = J.ab.shape[1]
        A = np.abs(J.ab[J.k :])  # J's diagonals, in gbmv's band storage
        # |J| times ones.  gbmv's wrapper wants at least 2k + 1 rows; rows
        # past n read band slots outside J, which stay zero.
        rows = blas.dgbmv(max(n, 2 * J.k + 1), n, J.k, J.k, 1.0, A, np.ones(n))
        norm_inf = float(rows.max())
        if not math.isfinite(norm_inf):
            raise np.linalg.LinAlgError("curvature Jacobian is not finite")
        lu, piv, info = lapack.dgbtrf(J.ab, J.k, J.k, overwrite_ab=True)
        if info > 0:  # an exact zero pivot
            cond = math.inf
        else:
            rcond, _ = lapack.dgbcon(J.k, J.k, lu, piv, float(A.sum(axis=0).max()))
            cond = 1.0 / rcond if rcond > 0.0 else math.inf
        return cls(lu=lu, piv=piv, k=J.k, order=J.order, cond=cond, norm_inf=norm_inf)

    def solve(self, rhs):
        x, _ = lapack.dgbtrs(self.lu, self.k, self.k, rhs[self.order], self.piv, overwrite_b=True)
        out = np.empty_like(x)
        out[self.order] = x
        return out


def _kappa_floor(scale, r):
    """Curvature noise level for a Jacobian of size ``scale`` (||J||_inf)."""
    return FLOOR_C * _EPS * scale * max(1.0, float(np.abs(r).max()))


@dataclass
class SolverOptions:
    kappa_stop: float = 1e-9  # stop at t where |kappa| = this * |kappa(1)|
    max_steps: int = 100000
    progress: object = None  # callable(state) at t=1 and after each accepted step

    def __post_init__(self):
        if not (0.0 < self.kappa_stop < 1e-3):
            raise ValueError("kappa_stop must lie in (0, 1e-3)")


@dataclass
class FlipEvent:
    t: float  # path time of the step during which the flip fired
    edge: tuple  # sorted endpoint labels
    theta: float  # total dihedral along the edge just before the flip

    def as_dict(self):
        return {"t": self.t, "edge": list(self.edge), "theta": self.theta}


@dataclass
class StepResult:
    accepted: bool
    reason: str = ""
    newton_iters: int = 0


@dataclass
class ContinuationState:
    metric: PolyhedralMetric
    mesh: CornerMesh
    r: np.ndarray
    t: float
    kappa1: np.ndarray
    r_init: float
    P: GeneralizedPolytope
    # Vertex order of the banded Jacobian, fixed for the whole solve.
    order: np.ndarray
    # LU of the curvature Jacobian at r: serves the next predictor, and its
    # cond and norm_inf drive the endgame, the records and the floor stop.
    # None once assembling or factoring it failed at acceptance.
    factor: JacobianFactor | None
    newton_tol: float
    # The previous accepted state (t, r, dr/dt) while the path is clean:
    # the predictor's second node.  A path is clean until it rejects a
    # step other than its one jump attempt; then previous is dropped and
    # the path predicts by Euler steps for good.
    previous: tuple | None = None
    clean: bool = True
    flips: int = 0
    steps_accepted: int = 0
    steps_rejected: int = 0
    records: list = field(default_factory=list)
    events: list = field(default_factory=list)
    floor_stop: bool = False  # terminated at the precision floor (flat limit)

    def dump(self, reason=""):
        """JSON-ready snapshot for post-mortem inspection."""
        return {
            "reason": reason,
            "t": self.t,
            "r": self.r.tolist(),
            "kappa1": self.kappa1.tolist(),
            "r_init": self.r_init,
            "flips": self.flips,
            "steps_accepted": self.steps_accepted,
            "steps_rejected": self.steps_rejected,
            "mesh": json.loads(self.mesh.to_json()),
            "events": [e.as_dict() for e in self.events],
        }


def choose_initial_radius(metric: PolyhedralMetric, mesh: CornerMesh):
    """Double an equal radius until the generalized polytope exists and
    sits strictly inside the admissible cone:

      (a) every face carries a pyramid,
      (b) 0 < kappa_i < delta_i at every vertex,
      (c) every vertex sees total curvature > 2*pi at the others.
    """
    radius = float(mesh.ell.max())
    n = mesh.n_vertices
    for _ in range(SEED_DOUBLINGS):
        try:
            P = GeneralizedPolytope(mesh, np.full(n, radius))
        except _REJECTABLE:
            radius *= 2.0
            continue
        kappa = P.kappa
        total = float(kappa.sum())
        if (
            np.all(kappa > 0.0)
            and np.all(kappa < metric.deficits)
            and total - float(kappa.max()) > 2.0 * math.pi
        ):
            return radius, P
        radius *= 2.0
    raise SolverAbort(
        f"no valid starting radius after {SEED_DOUBLINGS} doublings"
    )


def _edge_theta(mesh, r, f, s):
    """Total dihedral along edge (f, s) for the current radii."""
    g, s2 = mesh.neighbor(f, s)
    faces = np.array([f, g])
    batch = solve_pyramids(mesh.ell[faces], np.asarray(r)[mesh.vert[faces]])
    return float(batch.alpha[0, s] + batch.alpha[1, s2])


def step(state: ContinuationState, t_new: float) -> StepResult:
    """One predictor/corrector step from state.t down to t_new.

    Mutates the state only on acceptance.
    """
    target = t_new * state.kappa1
    dt = state.t - t_new
    mesh = state.mesh.copy()
    r = state.r.copy()
    buffer = []
    flips_here = 0

    def hook(m, f, s):
        theta = _edge_theta(m, r, f, s)
        i, j = m.edge_endpoints(f, s)
        buffer.append(FlipEvent(t=t_new, edge=tuple(sorted((i, j))), theta=theta))

    try:
        factor = state.factor
        if factor is None:
            raise StepReductionError("no Jacobian available at the current state")
        if factor.cond == math.inf:  # a zero pivot: the solve is inf or NaN
            return _reject(state, "curvature Jacobian is numerically singular")
        endgame = 1.0 / factor.cond < RCOND_MIN
        scale = factor.norm_inf
        tangent = factor.solve(state.kappa1)  # dr/dt at state.t
        if state.previous is None:
            r = r - dt * tangent
        else:
            r = _hermite(*state.previous, state.t, r, tangent, t_new)

        iters = 0
        while True:
            iters += 1
            flips_here += weighted_delaunay(mesh, r * r, on_flip=hook)
            P = GeneralizedPolytope(mesh, r)
            residual = P.kappa - target
            # Curvature evaluations carry noise of order
            # eps * ||J||_inf * |r|; asking Newton for better than that
            # livelocks near flat limits, where ||J|| blows up.
            tol = max(state.newton_tol, _kappa_floor(scale, r))
            if float(np.abs(residual).max()) <= tol:
                break
            if iters >= MAX_NEWTON:
                return _reject(state, f"no convergence in {MAX_NEWTON} iterations")
            factor = JacobianFactor.of(jacobian.assemble(P, state.order))
            if factor.cond == math.inf or (not endgame and 1.0 / factor.cond < RCOND_MIN):
                return _reject(state, "curvature Jacobian is numerically singular")
            if endgame:
                scale = factor.norm_inf
            r = r - factor.solve(residual)
    except _REJECTABLE as exc:
        return _reject(state, f"{type(exc).__name__}: {exc}")

    # Invariants at the accepted state, all with the Newton tolerance as
    # slack, so that they share its noise floor.
    kappa = P.kappa
    slack = tol
    if np.any(kappa < -slack) or np.any(kappa > state.metric.deficits + slack):
        return _reject(state, "curvature left the admissible band")
    if float(np.abs(r).max()) > RADIUS_CAP * state.r_init:
        return _reject(state, "radii escaped the initial bound")
    rep = P.curvature_report()
    if np.any(rep.theta > math.pi + max(1e-9, slack)):
        return _reject(state, "edge dihedral exceeded pi")
    prev_total = float(state.P.kappa.sum())
    if float(kappa.sum()) > prev_total + 1e-12 + 2 * kappa.size * slack:
        return _reject(state, "spherical section area decreased")

    try:
        state.factor = JacobianFactor.of(jacobian.assemble(P, state.order))
    except _REJECTABLE:
        # Keep the accepted state but mark the Jacobian unusable: the next
        # step rejects, and the state is never at the floor.
        state.factor = None

    if state.clean:
        state.previous = (state.t, state.r, tangent)
    state.mesh = mesh
    state.r = r
    state.t = t_new
    state.P = P
    state.flips += flips_here
    state.steps_accepted += 1
    state.events.extend(buffer)
    _record(state, iters)
    return StepResult(accepted=True, newton_iters=iters)


def _hermite(t0, r0, m0, t1, r1, m1, t):
    """The cubic through (t0, r0) and (t1, r1) with slopes m0 and m1,
    evaluated at t; in Newton form on the nodes t1, t1, t0, t0, so that
    its first two terms are the Euler step from t1."""
    h = t0 - t1
    u = t - t1
    d = (r0 - r1) / h  # the secant slope
    return r1 + u * m1 + (u * u / h) * ((d - m1) + ((t - t0) / h) * (m0 + m1 - 2.0 * d))


def _record(state, newton_iters):
    """Append the progress record of the state just reached.

    ``cond`` is rounded to 6 significant digits: LAPACK's estimate can
    differ in its last bits between runs on the same input, and records
    must reproduce.  Step control reads the unrounded ``factor.cond``.
    """
    cond = math.inf if state.factor is None else state.factor.cond
    state.records.append(
        {
            "t": state.t,
            "kappa_inf": float(np.abs(state.P.kappa).max()),
            "flips_so_far": state.flips,
            "newton_iters": newton_iters,
            "cond": float(f"{cond:.6g}") if math.isfinite(cond) else None,
        }
    )


def _reject(state, reason):
    state.steps_rejected += 1
    return StepResult(accepted=False, reason=reason)


@dataclass
class SolveResult:
    polytope: GeneralizedPolytope
    state: ContinuationState

    @property
    def r(self):
        return self.state.r

    @property
    def kappa1(self):
        return self.state.kappa1

    @property
    def events(self):
        return self.state.events


def start_state(metric: PolyhedralMetric):
    """Delaunay-normalize the development's triangulation and pick the
    starting radius; returns the t = 1 continuation state."""
    mesh = CornerMesh.from_metric(metric)
    initial_flips = weighted_delaunay(mesh, np.ones(mesh.n_vertices))
    order = mesh.cached(jacobian.band_order)
    radius, P = choose_initial_radius(metric, mesh)
    kappa1 = P.kappa.copy()
    state = ContinuationState(
        metric=metric,
        mesh=mesh,
        r=np.full(mesh.n_vertices, radius),
        t=1.0,
        kappa1=kappa1,
        r_init=radius,
        P=P,
        order=order,
        factor=JacobianFactor.of(jacobian.assemble(P, order)),
        newton_tol=NEWTON_TOL * max(1.0, float(np.abs(kappa1).max())),
        flips=initial_flips,
    )
    _record(state, 0)
    return state


def solve_path(metric: PolyhedralMetric, opts: SolverOptions | None = None) -> SolveResult:
    """March t from 1 down to kappa_stop; returns the final polytope.

    Raises SolverAbort (with a state dump attached) if the step size
    underflows or the step budget runs out.
    """
    opts = opts or SolverOptions()
    state = start_state(metric)
    if opts.progress is not None:
        opts.progress(state)
    t_stop = opts.kappa_stop
    dt = DT_INIT
    steps = 0
    jumped = False
    while state.t > t_stop:
        steps += 1
        if steps > opts.max_steps:
            raise SolverAbort(
                f"step budget {opts.max_steps} exhausted at t={state.t!r}",
                state_dump=state.dump("step budget exhausted"),
            )
        dt_eff = min(dt, 0.5 * state.t)
        t_new = state.t - dt_eff
        jump = state.clean and not jumped and state.t <= T_JUMP
        jumped = jumped or jump
        if jump or t_new < t_stop:
            t_new = t_stop  # exactly; state.t - dt_eff may miss it by an ulp
            dt_eff = state.t - t_stop
        result = step(state, t_new)
        if result.accepted:
            if opts.progress is not None:
                opts.progress(state)
            if _at_floor(state):
                state.floor_stop = True
                break
            if result.newton_iters <= 3:
                dt *= GROWTH
        else:
            if not jump:
                state.clean = False
                state.previous = None
            dt = 0.5 * dt_eff
            if dt < DT_MIN:
                if _at_floor(state):
                    state.floor_stop = True
                    break
                raise SolverAbort(
                    f"step size underflow at t={state.t!r}: {result.reason}",
                    state_dump=state.dump(result.reason),
                )
    return SolveResult(polytope=state.P, state=state)


def _at_floor(state):
    """True when the state's curvature is below what double-precision
    radii can express.  Flat limits reach it, where the row norms of the
    curvature Jacobian blow up, and so can a large hull whose jump to
    kappa_stop is rejected: the random hull n = 2560 (seed [1, 2560])
    halves down to it and stops at t = 7.4e-9, after 33 accepted steps
    and 1 rejected.  A state without a usable
    Jacobian (``factor`` None) has no noise scale and is never at the
    floor."""
    if state.factor is None:
        return False
    floor = _kappa_floor(state.factor.norm_inf, state.r)
    return float(np.abs(state.P.kappa).max()) <= floor
