"""Shared fixtures: catalog metrics and sampled solver paths.

The expensive corpora (the 20-hull roundtrip sweep and the path-state
samples that feed the Jacobian/duality/rank checks) are built once per
session and reused across test modules.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from polyforge import build_metric, catalog, hull, solver
from polyforge.solver import solve_path

# catalog.tetrahedron(scale) has edge 2*sqrt(2)*scale
UNIT_EDGE_SCALE = 1.0 / (2.0 * math.sqrt(2.0))

# (n_points, seed) pairs for the 20-hull roundtrip corpus, sizes 6..20.
HULL_CASES = [(n, 1) for n in range(6, 21)] + [(8, 2), (12, 3), (16, 4), (20, 5), (10, 6)]


def thin_hull(n, axes, seed):
    """``hull.random_sphere_development(n, seed)`` with the points scaled
    by the semi-axes ``axes``, as (development, points, corner_point).  A
    positive diagonal map keeps every hull face and its orientation, so
    the sphere hull's triangles, scaled, are the ellipsoid hull's."""
    _, points, corner_point = hull.random_sphere_development(n, seed=seed)
    points = points * np.asarray(axes, dtype=float)
    return hull.development_from_triangles(points, corner_point), points, corner_point


@pytest.fixture(scope="session")
def tetra_metric():
    return build_metric(catalog.tetrahedron(UNIT_EDGE_SCALE))


@pytest.fixture(scope="session")
def cube_metric():
    return build_metric(catalog.cube())


@pytest.fixture(scope="session")
def square_metric():
    return build_metric(catalog.doubly_covered_polygon(4))


@pytest.fixture(scope="session")
def polygon64_metric():
    # the doubly covered 64-gon: its path ends, once its folds classify,
    # at a state whose J fails RCOND_MIN
    return build_metric(catalog.doubly_covered_polygon(64))


@pytest.fixture
def fold_stop_off(monkeypatch):
    """Switch solve_path's fold stop off for the rest of the test, from
    the point the fixture is set up: flat paths then run on to their
    precision floor, as they did before the stop.  Request it through
    ``request.getfixturevalue`` to compare a path with and without it."""
    monkeypatch.setattr(solver, "_folds_classify", lambda state: False)


@dataclass(frozen=True)
class LoggedStep:
    """One ``solver.step`` call: the step from t to t_new, its outcome,
    and the predictor it used.  ``hermite`` and ``clean`` are the state's
    before the step, so the entry after a rejection shows whether the
    path stayed clean."""

    t: float
    t_new: float
    accepted: bool
    iterates: int
    reason: str
    hermite: bool
    clean: bool


@pytest.fixture
def step_log(monkeypatch):
    """Log every ``solver.step`` call for the rest of the test, as
    ``LoggedStep`` entries in the list the fixture returns.  It wraps the
    ``solver.step`` bound when it is set up, so a test that replaces the
    step first and then asks for the log through
    ``request.getfixturevalue`` sees its own replacement's results."""
    log = []
    inner = solver.step

    def logged(state, t_new):
        t, hermite, clean = state.t, state.previous is not None, state.clean
        result = inner(state, t_new)
        log.append(
            LoggedStep(
                t, t_new, result.accepted, result.newton_iters, result.reason, hermite, clean
            )
        )
        return result

    monkeypatch.setattr(solver, "step", logged)
    return log


@dataclass
class PathRun:
    """One solved continuation path plus per-step state snapshots."""

    name: str
    metric: object
    result: object
    samples: list = field(default_factory=list)  # (t, mesh copy, r copy)
    points: np.ndarray | None = None  # hull cases: sampled sphere points
    corner_point: np.ndarray | None = None
    wall_time: float = 0.0

    @property
    def final(self):
        return self.samples[-1]


def run_path(metric, name="", points=None, corner_point=None, **kw):
    import time

    samples = []

    def sample(state):
        samples.append((state.t, state.mesh.copy(), state.r.copy()))

    t0 = time.perf_counter()
    result = solve_path(metric, progress=sample, **kw)
    return PathRun(
        name=name,
        metric=metric,
        result=result,
        samples=samples,
        points=points,
        corner_point=corner_point,
        wall_time=time.perf_counter() - t0,
    )


@pytest.fixture(scope="session")
def tetra_path(tetra_metric):
    return run_path(tetra_metric, name="tetrahedron")


@pytest.fixture(scope="session")
def cube_path(cube_metric):
    return run_path(cube_metric, name="cube")


@pytest.fixture(scope="session")
def square_path(square_metric):
    return run_path(square_metric, name="doubled-square")


@pytest.fixture(scope="session")
def hull_paths():
    """The 20 random-hull roundtrips, solved once with state sampling."""
    runs = []
    for n, seed in HULL_CASES:
        dev, points, corner_point = hull.random_sphere_development(n, seed=seed)
        metric = build_metric(dev)
        runs.append(
            run_path(
                metric,
                name=f"hull-{n}-seed{seed}",
                points=points,
                corner_point=corner_point,
            )
        )
    return runs


@pytest.fixture(scope="session")
def all_paths(tetra_path, cube_path, hull_paths):
    """Every nondegenerate path in the session corpus."""
    return [tetra_path, cube_path] + hull_paths


@pytest.fixture(scope="session")
def sampled_polytopes(all_paths):
    """About a hundred valid (mesh, r) states spread over every
    path; used as the random-polytope corpus."""
    from polyforge.polytope import GeneralizedPolytope

    out = []
    for run in all_paths:
        stride = max(1, len(run.samples) // 5)
        for t, mesh, r in run.samples[::stride]:
            out.append(GeneralizedPolytope(mesh, r))
    return out
