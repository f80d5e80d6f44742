"""Curvature continuation: deform a tall generalized polytope until its
vertex curvatures vanish.

The target path is kappa(t) = t * kappa(1).  Starting from equal radii
at which the polytope is valid and strictly inside the good region
(``choose_initial_radius``), each step predicts with the curvature
Jacobian, then corrects with Newton; the triangulation is re-flipped to
weighted Delaunay (q = r^2) after every Newton update, so combinatorial
surgery happens exactly where the deformation crosses a flat edge.
Failed steps roll back and halve the step size.

The Hessian stays non-degenerate for every t > 0, so the path r(t) is
smooth and its tangent dr/dt = J^{-1} kappa(1) is continuous, across
flips too.  While the path is clean, the predictor is the cubic Hermite
extrapolation through the last two accepted states and their tangents
(Allgower & Georg, Introduction to Numerical Continuation Methods, ch.
6); the tangent at the current state is the solve an Euler step makes,
so the cubic costs no extra factor or solve.  A path is clean until it
rejects a step other than a landing attempt or a wide step (below); from
then on it predicts by Euler steps.

Each step's size follows the error its predictor made.  The first
Newton iterate measures the residual at the predicted point, rho0 =
|kappa(r_pred) - t_new kappa(1)|_inf in units of the Newton tolerance,
at no extra cost.  After an accepted step on a clean path, the next step
is the one whose residual would be RESIDUAL_TARGET: dt is scaled by
(RESIDUAL_TARGET / rho0)^(1/p), kept within DT_RATIO, where p = 4 after
a Hermite prediction (error O(dt^4)) and p = 2 after an Euler one
(Deuflhard, Newton Methods for Nonlinear Problems, ch. 5).  A clean
path's step may cut t by up to DT_CAP_CLEAN, so t falls by up to 4x per
step; the paths of the catalog solids and random hulls follow this rule
from t = 1 to the landing.  A rejected step wider than DT_CAP of t is
treated like a landing attempt: the path stays clean and keeps its
Hermite predictor, but its steps are capped at DT_CAP of t from then on.
Any other rejection makes the path unclean, and an unclean path grows dt
by GROWTH after a step of at most 3 Newton iterates and caps it at
DT_CAP of t.

Newton stops once further iterates buy nothing the path reads (Allgower
& Georg, ch. 2: a corrector need only return to a neighbourhood of the
path).  A step on a clean path to t_new > T_TIGHT = T_JUMP / (1 -
DT_CAP_CLEAN) stops once its residual is within LOOSE_TOL =
sqrt(RESIDUAL_TARGET) Newton tolerances; every other step but the
landing converges to the Newton tolerance, and every check at acceptance
keeps that tolerance as its slack.  Each part of the rule has its reason:

* LOOSE_TOL: a clean path sizes its steps from rho0 alone, aimed at
  RESIDUAL_TARGET tolerances, so a node LOOSE_TOL tolerances off the
  path moves the next prediction by about 1e-4 of that target, while
  Newton from rho0 ~ RESIDUAL_TARGET stops one iterate earlier;
* clean paths only: an unclean path grows dt by counting Newton
  iterates, which a looser stop would change;
* t_new > T_TIGHT: a clean path lands from its first state at t <=
  T_JUMP, and the Hermite prediction of the landing uses that state and
  the one before, at t <= T_TIGHT, since a clean step cuts t by at most
  1 / (1 - DT_CAP_CLEAN).  Both are on the path to the tolerance.

The paper's path ends at kappa = 0, where the generalized polytope is
the convex polytope, and so does the numerical one: its last step, the
landing, goes to t = 0.  There J is singular along the three apex
translations (the apex may sit anywhere inside the body), so the
landing's corrector holds three radii fixed (``_pins``): it factors J
with their rows and columns replaced by the identity's
(``_pin_jacobian``), through JacobianFactor like every other corrector,
and RCOND_MIN applies to it unchanged.  Its Newton stops once an update
moves r by at most sqrt(eps) |r|_inf, after at least one update; a
prediction can meet the Newton tolerance while its radii are still far
from closing the embedding.  A landing whose residual fails to fall, or
ends above the Newton tolerance, is rejected.

A clean path tries the landing once, from its first accepted state at t
<= T_JUMP.  An unclean path tries it there and again each time t has
halved since its last attempt.  A rejected attempt halves the step to
KAPPA_STOP as any rejection does, but leaves the path clean.  Paths into
a flat limit have their landing rejected, then step on until their
dihedrals classify as folds and flat edges (``CurvatureReport.folds``),
and stop there: the body is flat, and ``embed.place_faces`` lays it out
with its dihedrals snapped to exactly 0 and pi.  A path that cannot land
and is not flat steps on to t = KAPPA_STOP, a tolerance at which the
embedding still closes far inside ``embed.CLOSURE_TOL``.  A path ends
for one of three reasons, kept in ``ContinuationState.stop``: it landed
("landed"), its folds classified ("folds", ``_folds_classify``), or it
reached KAPPA_STOP ("kappa_stop").  Any other path aborts with a state
dump, once its step size underflows or its step budget runs out.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from . import jacobian, kernels
from .errors import (
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
    np.linalg.LinAlgError,
)

# Linear algebra.  d(kappa)/d(r) is the Hessian of the dual volume:
# symmetric and indefinite (one positive eigenvalue), so every solve goes
# through one LU factor per assembled Jacobian (JacobianFactor).  J has
# about seven nonzeros per row.  start_state numbers the vertices once in
# reverse Cuthill-McKee order (jacobian.band_order); every J is assembled
# permuted to that order in LAPACK band storage and factored by gbtrf, so
# no n x n array is made (timings against dense getrf in the jacobian
# module).  The factor made at acceptance is kept on the state and serves
# the next predictor; a state is accepted only with it.  Each Newton
# iterate factors its own J once, and a factor that fails RCOND_MIN
# rejects the step.  The predictor's factor is rejected only after an
# exact zero pivot: cond(J) grows without bound along a path into a flat
# limit, whose states near the fold stop fail RCOND_MIN themselves, so
# rejecting the steps from them could not help.
#
# Noise floor.  A kappa evaluation carries error of order eps * |J| * |r|,
# and |J| blows up approaching a flat body.  The scale is ||J||_1 of the
# factor a step starts from (``JacobianFactor.norm``), which bounds
# sigma_max(J) from above for a symmetric J and is the norm gbcon needs
# anyway.  The Newton tolerance is floored at FLOOR_C times that level:
# asking Newton for better than the noise livelocks it near a flat limit.
# Run on past its fold stop (the stop switched off), a flat path lands,
# steps on to KAPPA_STOP, or aborts with a step-size underflow, a state
# dump attached: its nearly flat pyramids are solved in doubles, and below
# the fold stop their noise may keep Newton from converging.
FLOOR_C = 64.0
_EPS = float(np.finfo(np.float64).eps)

# Step control.
NEWTON_TOL = 1e-10  # * max(1, |kappa(1)|_inf)
MAX_NEWTON = 8  # Newton iterations per step before it is rejected
RCOND_MIN = 1e-12  # least reciprocal condition estimate Newton accepts
DT_INIT = 1.0 / 64.0
DT_MIN = 1e-12
# Clean paths size each step from its predictor's residual rho0, in units
# of the Newton tolerance (module docstring).  A residual of 1e8
# tolerances is 1e-2 of max(1, |kappa(1)|_inf), which quadratic
# convergence brings within LOOSE_TOL tolerances in two Newton updates
# (1e-2, 1e-4, 1e-8) and below the tolerance in a third.  Measured with
# every other constant as here: a target of 1e9 makes the twisted 12- and
# 24-gons take 34/2 and 37/1 accepted/rejected steps instead of 13/0 and
# 12/0, and one of 1e6 with a DT_CAP cap makes the hulls n = 160, 320 and
# 640 (seed [1, n]) take 76 steps instead of 30.
RESIDUAL_TARGET = 1e8
# Bounds of dt_next / dt from the residual: shrink no more than a
# rejection halves, grow no more than t may fall per step (4x).
DT_RATIO = (0.5, 4.0)
# dt <= DT_CAP_CLEAN * t on a clean path that has rejected no wide step,
# so t falls by up to 4x per step; with 0.9 the seven doubly covered
# bodies of the flat-limit benchmark take 178 steps, 14 of them
# rejected, instead of 130 and 7.  Every other path keeps
# dt <= DT_CAP * t.
DT_CAP_CLEAN = 0.75
DT_CAP = 0.5
GROWTH = 1.5  # unclean paths: step growth after <= 3 Newton iterations
RADIUS_CAP = 2.0  # radii may grow to this times the initial radius
SEED_DOUBLINGS = 60  # tries of the equal starting radius
# Paths land from t <= T_JUMP; one that cannot land ends at KAPPA_STOP
# (module docstring).
T_JUMP = 1e-3
KAPPA_STOP = 1e-9
# The landing's Newton stops once an update moves r by at most this
# times |r|_inf: converging quadratically, the next update would be at
# rounding level.
LAND_STEP = math.sqrt(_EPS)
MAX_STEPS = 100000  # step attempts per path before it aborts
# Newton's stop (module docstring): a step on a clean path to t_new >
# T_TIGHT stops within LOOSE_TOL Newton tolerances, every other step at
# the tolerance itself.
LOOSE_TOL = math.sqrt(RESIDUAL_TARGET)
T_TIGHT = T_JUMP / (1.0 - DT_CAP_CLEAN)


@dataclass(frozen=True)
class JacobianFactor:
    """Banded LU factor of one curvature Jacobian and the two numbers the
    solver reads off it: LAPACK's 1-norm condition estimate (gbcon,
    within a factor n of the 2-norm condition number) and ||J||_1, the
    largest absolute column sum.  J is symmetric up to rounding, so
    ||J||_1 is also its largest row sum and bounds sigma_max(J) from
    above; it is both the norm gbcon needs and the noise scale.  J
    comes permuted to the state's reverse Cuthill-McKee order, in the
    band storage of gbtrf, with half-bandwidth k; the norm is taken from
    the band cells J fills, and ``solve`` permutes the right-hand side in
    and the solution back.  The solver's only linear algebra: it serves every
    predictor and corrector, the landing's too.

    ``sign`` is the sign of det J, read off the factor on first use."""

    lu: np.ndarray  # gbtrf's band LU
    piv: np.ndarray
    k: int  # half-bandwidth of J
    order: np.ndarray  # the vertex order J was assembled in
    cond: float  # inf for an exactly singular J
    norm: float  # ||J||_1

    @classmethod
    def of(cls, J):
        """Factor a ``jacobian.BandJacobian`` in place: ``J.ab`` becomes
        the factor, which saves a copy as large as the band."""
        # Band storage keeps column q of J in column q, so these are J's
        # absolute column sums, over the cells J fills.
        filled = np.abs(J.ab.ravel(order="F")[J.cells])
        norm = float(np.bincount(J.cols, weights=filled, minlength=J.ab.shape[1]).max())
        if not math.isfinite(norm):
            raise np.linalg.LinAlgError("curvature Jacobian is not finite")
        lu, piv, info = lapack.dgbtrf(J.ab, J.k, J.k, overwrite_ab=True)
        if info > 0:  # an exact zero pivot
            cond = math.inf
        else:
            rcond, _ = lapack.dgbcon(J.k, J.k, lu, piv, norm)
            cond = 1.0 / rcond if rcond > 0.0 else math.inf
        return cls(lu=lu, piv=piv, k=J.k, order=J.order, cond=cond, norm=norm)

    @functools.cached_property
    def sign(self):
        """The sign of det J: 1 or -1, and 0 after an exact zero pivot.

        U's diagonal is row 2k of ``lu``; gbtrf leaves an exact zero
        there at a zero pivot, and each row swap flips the sign.  The
        paper's theorem (one positive eigenvalue) predicts (-1)^(n-1)
        inside the admissible region; a symmetric permutation keeps the
        determinant, so the vertex order does not change it."""
        diag = self.lu[2 * self.k]
        if not diag.all():
            return 0
        # scipy's gbtrf returns 0-based pivots: row p was swapped with
        # row piv[p], and piv[p] == p is no swap.
        flips = np.count_nonzero(diag < 0.0)
        flips += np.count_nonzero(self.piv != np.arange(self.piv.size))
        return -1 if flips % 2 else 1

    def solve(self, rhs):
        x, _ = lapack.dgbtrs(self.lu, self.k, self.k, rhs[self.order], self.piv, overwrite_b=True)
        out = np.empty_like(x)
        out[self.order] = x
        return out


def _kappa_floor(scale, r):
    """Curvature noise level for a Jacobian of size ``scale`` (||J||_1)."""
    return FLOOR_C * _EPS * scale * max(1.0, float(np.abs(r).max()))


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
    # rho0 of an accepted step: |kappa - t_new kappa(1)|_inf at the
    # predicted radii, in units of the first iterate's Newton tolerance
    predictor_residual: float = math.nan


@dataclass
class ContinuationState:
    metric: PolyhedralMetric
    t: float
    kappa1: np.ndarray
    r_init: float
    P: GeneralizedPolytope
    # Vertex order of the banded Jacobian, fixed for the whole solve.
    order: np.ndarray
    # LU of the curvature Jacobian at r: serves the next predictor, and its
    # cond and norm drive the records and the Newton tolerance's floor.  At
    # a landed state it is the landing's last pinned factor.
    factor: JacobianFactor
    newton_tol: float
    # The previous accepted state (t, r, dr/dt) while the path is clean:
    # the predictor's second node.  A path is clean until it rejects a
    # step other than a landing attempt or a wide step; then previous
    # is dropped and the path predicts by Euler steps for good.
    previous: tuple | None = None
    clean: bool = True
    flips: int = 0
    steps_accepted: int = 0
    steps_rejected: int = 0
    records: list = field(default_factory=list)
    events: list = field(default_factory=list)
    # Why the path ended: "landed", "folds" (``_folds_classify``) or
    # "kappa_stop"; empty while it runs.
    stop: str = ""

    # The layout is the polytope's: its triangulation and radii.
    @property
    def mesh(self) -> CornerMesh:
        return self.P.mesh

    @property
    def r(self) -> np.ndarray:
        return self.P.r

    def dump(self, reason=""):
        """JSON-ready snapshot for post-mortem inspection.  The sign of
        det J at r, which the paper predicts to be (-1)^(n-1), is read
        off the factor only here."""
        return {
            "reason": reason,
            "t": self.t,
            "r": self.r.tolist(),
            "jacobian_sign": self.factor.sign,
            "kappa1": self.kappa1.tolist(),
            "r_init": self.r_init,
            "flips": self.flips,
            "steps_accepted": self.steps_accepted,
            "steps_rejected": self.steps_rejected,
            "mesh": json.loads(self.mesh.to_json()),
            "events": [e.as_dict() for e in self.events],
        }


def _admissible_start(metric: PolyhedralMetric, mesh: CornerMesh, radius: float):
    """The generalized polytope with every radius equal to ``radius`` if
    it exists and sits strictly inside the admissible cone, else None:

      (a) every face carries a pyramid,
      (b) 0 < kappa_i < delta_i at every vertex,
      (c) every vertex sees total curvature > 2*pi at the others.
    """
    try:
        P = GeneralizedPolytope(mesh, np.full(mesh.n_vertices, radius))
    except _REJECTABLE:
        return None
    kappa = P.kappa
    if (
        np.all(kappa > 0.0)
        and np.all(kappa < metric.deficits)
        and float(kappa.sum()) - float(kappa.max()) > 2.0 * math.pi
    ):
        return P
    return None


def choose_initial_radius(metric: PolyhedralMetric, mesh: CornerMesh):
    """The equal starting radius and its polytope (``_admissible_start``).

    The radius doubles from ell_max until it is admissible, at R.  The
    radius below, R / 2, was tried and failed, or it is ell_max / 2, at
    which no equal radius carries the lateral triangle (R, R, ell_max).
    The geometric midpoint of that last interval, R / sqrt(2), is tried
    once, and the path starts there if it is admissible: within sqrt(2)
    of the least admissible radius the doubling brackets.  The reason is
    the path's length: the radii fall from the start to the final apex
    distances, and a start twice too tall pays for that distance in
    steps.
    """
    radius = float(mesh.ell.max())
    for _ in range(SEED_DOUBLINGS):
        P = _admissible_start(metric, mesh, radius)
        if P is not None:
            mid = math.sqrt(0.5 * radius * radius)
            Q = _admissible_start(metric, mesh, mid)
            return (radius, P) if Q is None else (mid, Q)
        radius *= 2.0
    raise SolverAbort(
        f"no valid starting radius after {SEED_DOUBLINGS} doublings"
    )


def _edge_theta(mesh, r, e):
    """Total dihedral along the edge of each slot e for the current radii.

    The edges' faces go through one ``solve_pyramids`` call.  The edges
    must share no face, as the flips of one round do.  Every row of the
    batch is what a solve of the edge's two faces alone gives, bit for
    bit, since the kernel works row by row.
    """
    both = np.concatenate([e, mesh.twin[e]])
    faces = both // 3
    alpha = solve_pyramids(mesh.ell[faces], np.asarray(r)[mesh.vert[faces]]).alpha
    own = alpha[np.arange(both.size), both % 3]
    return own[: len(e)] + own[len(e) :]


def step(state: ContinuationState, t_new: float) -> StepResult:
    """One predictor/corrector step from state.t down to t_new; a step to
    t_new = 0 is the landing (module docstring).

    Mutates the state only on acceptance.
    """
    target = t_new * state.kappa1
    dt = state.t - t_new
    land = t_new == 0.0
    loose = state.clean and t_new > T_TIGHT  # Newton's stop (module docstring)
    mesh = state.mesh.copy()
    r = state.r.copy()
    buffer = []
    flips_here = 0

    def hook(m, e):
        # each flipped slot's tail and head labels, sorted
        ends = np.sort(m.vert.ravel()[kernels.side_ends(e)], axis=0).T
        for edge, theta in zip(ends.tolist(), _edge_theta(m, r, e).tolist()):
            buffer.append(FlipEvent(t=t_new, edge=tuple(edge), theta=theta))

    try:
        factor = state.factor
        if factor.cond == math.inf:  # a zero pivot: the solve is inf or NaN
            return _reject(state, "curvature Jacobian is numerically singular")
        scale = factor.norm
        tangent = factor.solve(state.kappa1)  # dr/dt at state.t
        if state.previous is None:
            r = r - dt * tangent
        else:
            r = _hermite(*state.previous, state.t, r, tangent, t_new)

        iters = 0
        pins = None
        while True:
            iters += 1
            flips_here += weighted_delaunay(mesh, r * r, on_flip=hook)
            P = GeneralizedPolytope(mesh, r)
            if land and pins is None:
                pins = _pins(state.factor)
            residual = P.kappa - target
            # Curvature evaluations carry noise of order
            # eps * ||J||_inf * |r|; asking Newton for better than that
            # livelocks near flat limits, where ||J|| blows up.
            tol = max(state.newton_tol, _kappa_floor(scale, r))
            err = float(np.abs(residual).max())
            if iters == 1:
                rho0 = err / tol
            if not land:
                if err <= (max(tol, LOOSE_TOL * state.newton_tol) if loose else tol):
                    break
            elif iters > 1:  # the landing stops on the size of its last update
                if settled and err <= tol:
                    break
                if settled or err >= last_err:
                    return _reject(state, f"no convergence in the landing: |kappa| {err:.3g}")
            if iters >= MAX_NEWTON:
                return _reject(state, f"no convergence in {MAX_NEWTON} iterations")
            J = jacobian.assemble(P, state.order)
            if land:
                _pin_jacobian(J, pins)
                residual[pins] = 0.0
            factor = JacobianFactor.of(J)
            if 1.0 / factor.cond < RCOND_MIN:  # an exact zero pivot too
                return _reject(state, "curvature Jacobian is numerically singular")
            update = factor.solve(residual)
            r = r - update
            last_err = err
            settled = float(np.abs(update).max()) <= LAND_STEP * float(np.abs(r).max())
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

    # A state is accepted only with its Jacobian, which the next step
    # needs; the landed state ends the path and keeps its pinned factor.
    if not land:
        try:
            factor = JacobianFactor.of(jacobian.assemble(P, state.order))
        except _REJECTABLE as exc:
            return _reject(state, f"{type(exc).__name__}: {exc}")

    if state.clean:
        state.previous = (state.t, state.r, tangent)
    state.t = t_new
    state.P = P
    state.factor = factor
    state.flips += flips_here
    state.steps_accepted += 1
    state.events.extend(buffer)
    _record(state, iters, rho0)
    return StepResult(accepted=True, newton_iters=iters, predictor_residual=rho0)


def _pins(factor):
    """The three vertices whose radii the landing holds fixed.

    The apex translations span the near-null space of J at the state the
    path lands from, so two steps of block inverse iteration with its LU
    ``factor``, from a fixed start block and orthonormalized by QR, give
    a basis Z of them.  The rows of Z picked by greedy row pivoting
    (QR with column pivoting on Z^T) span it best, so pinning those radii
    leaves J nonsingular at t = 0."""
    z = np.random.default_rng(0).standard_normal((factor.piv.size, 3))
    for _ in range(2):
        z, _ = np.linalg.qr(factor.solve(z))
    pins = []
    for _ in range(3):
        i = int(np.argmax((z * z).sum(axis=1)))
        pins.append(i)
        q = z[i] / np.linalg.norm(z[i])
        z = z - np.outer(z @ q, q)
    return np.array(pins)


def _pin_jacobian(J, pins):
    """Replace, in place, the rows and columns of the vertices ``pins`` in
    the banded J (``jacobian.BandJacobian``) by those of the identity."""
    n, k = J.ab.shape[1], J.k
    pos = np.empty(n, dtype=np.intp)
    pos[J.order] = np.arange(n)
    for p in pos[pins].tolist():
        J.ab[k:, p] = 0.0  # column p
        q = np.arange(max(0, p - k), min(n, p + k + 1))
        J.ab[2 * k + p - q, q] = 0.0  # row p
        J.ab[2 * k, p] = 1.0


def _hermite(t0, r0, m0, t1, r1, m1, t):
    """The cubic through (t0, r0) and (t1, r1) with slopes m0 and m1,
    evaluated at t; in Newton form on the nodes t1, t1, t0, t0, so that
    its first two terms are the Euler step from t1."""
    h = t0 - t1
    u = t - t1
    d = (r0 - r1) / h  # the secant slope
    return r1 + u * m1 + (u * u / h) * ((d - m1) + ((t - t0) / h) * (m0 + m1 - 2.0 * d))


def _record(state, newton_iters, predictor_residual=None):
    """Append the progress record of the state just reached.

    ``predictor_residual`` is the step's rho0 (``StepResult``), which
    sized the step after it on a clean path; None at t = 1.  ``cond`` is
    rounded to 6 significant digits: LAPACK's estimate can differ in its
    last bits between runs on the same input, and records must
    reproduce.  Step control reads the unrounded ``factor.cond``.
    """
    cond = state.factor.cond  # inf after an exact zero pivot
    state.records.append(
        {
            "t": state.t,
            "kappa_inf": float(np.abs(state.P.kappa).max()),
            "flips_so_far": state.flips,
            "newton_iters": newton_iters,
            "cond": float(f"{cond:.6g}") if math.isfinite(cond) else None,
            "predictor_residual": predictor_residual,
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


def solve_path(metric: PolyhedralMetric, max_steps=MAX_STEPS, progress=None) -> SolveResult:
    """March t from 1 down to 0, or to where the path stops (module
    docstring); returns the final polytope.

    ``progress``, if given, is called with the state at t = 1 and after
    each accepted step.  Raises SolverAbort (with a state dump attached)
    if the step size underflows or the budget of ``max_steps`` step
    attempts runs out.
    """
    state = start_state(metric)
    if progress is not None:
        progress(state)
    t_stop = KAPPA_STOP
    dt = DT_INIT
    cap = DT_CAP_CLEAN
    steps = 0
    tried = math.inf  # t of the last landing attempt
    while state.t > t_stop:
        steps += 1
        if steps > max_steps:
            raise SolverAbort(
                f"step budget {max_steps} exhausted at t={state.t!r}",
                state_dump=state.dump("step budget exhausted"),
            )
        dt_eff = min(dt, cap * state.t)
        t_new = state.t - dt_eff
        land = state.t <= T_JUMP and (
            tried == math.inf or (not state.clean and state.t <= 0.5 * tried)
        )
        if land:
            tried = state.t
            t_new, dt_eff = 0.0, state.t - t_stop
        elif t_new < t_stop:
            t_new = t_stop  # exactly; state.t - dt_eff may miss it by an ulp
            dt_eff = state.t - t_stop
        hermite = state.previous is not None
        result = step(state, t_new)
        if result.accepted:
            if progress is not None:
                progress(state)
            if land:
                state.stop = "landed"
                break
            if _folds_classify(state):
                state.stop = "folds"
                break
            if state.clean:
                dt = dt_eff * _dt_ratio(result.predictor_residual, 4 if hermite else 2)
            elif result.newton_iters <= 3:
                dt *= GROWTH
        else:
            if not land:
                # A rejected wide step leaves the path clean, but no step
                # is wide again; any other rejection ends the clean path.
                if dt_eff <= DT_CAP * state.t:
                    state.clean = False
                    state.previous = None
                cap = DT_CAP
            dt = 0.5 * dt_eff
            if dt < DT_MIN:
                raise SolverAbort(
                    f"step size underflow at t={state.t!r}: {result.reason}",
                    state_dump=state.dump(result.reason),
                )
    state.stop = state.stop or "kappa_stop"
    return SolveResult(polytope=state.P, state=state)


def _dt_ratio(rho0, p):
    """dt_next / dt after a clean step whose predictor, of order p, left
    the residual rho0: the step that would leave RESIDUAL_TARGET, within
    DT_RATIO (rho0 may be 0)."""
    lo, hi = DT_RATIO
    if rho0 * hi**p <= RESIDUAL_TARGET:
        return hi
    return max(lo, (RESIDUAL_TARGET / rho0) ** (1.0 / p))


def _folds_classify(state):
    """True at an accepted state with t <= T_JUMP whose dihedrals
    classify as folds and flat edges (``CurvatureReport.folds``): the
    body is flat, and ``embed.place_faces`` lays it out with exactly 0
    and pi, which depend only on the triangulation and on which edges
    are folds.  The flat paths of the tests flip no edge, and those that
    land or reach KAPPA_STOP when run on give the same layout there bit
    for bit.  The report is the one the dihedral check made at
    acceptance, so this solves no pyramid."""
    return state.t <= T_JUMP and state.P.curvature_report().folds() is not None

