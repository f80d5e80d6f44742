"""Compare the compiled kernels against the pure-numpy fallback.

Run as ``python benchmarks/bench_kernels.py``.  Imports both backends
directly (bypassing the POLYFORGE_KERNELS switch) so the comparison
works regardless of which one the package itself selected.
"""

from __future__ import annotations

import time

import numpy as np

from polyforge.kernels import _numpy

try:
    from polyforge.kernels import _core
except ImportError:
    _core = None


def timeit(fn, *args, repeat=5):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_batched(n_faces=20000, seed=0):
    rng = np.random.default_rng(seed)
    # Fat random triangles with radii comfortably above the circumradius.
    ab = rng.uniform(1.0, 2.0, size=(n_faces, 2))
    c = np.abs(ab[:, 0] - ab[:, 1]) + rng.uniform(0.3, 1.0, n_faces)
    ell = np.column_stack([ab, c])
    rad = rng.uniform(4.0, 6.0, size=(n_faces, 3))

    rows = []
    for name, mod in backends():
        t_ang = timeit(mod.tri_angles, ell)
        t_pyr = timeit(mod.face_pyramids, ell, rad)
        rows.append((name, t_ang, t_pyr))
    print(f"\nbatched kernels on {n_faces} faces (best of 5, seconds):")
    print(f"{'backend':<10} {'tri_angles':>12} {'face_pyramids':>14}")
    for name, t_ang, t_pyr in rows:
        print(f"{name:<10} {t_ang:>12.6f} {t_pyr:>14.6f}")
    if len(rows) == 2:
        print(
            f"speedup: tri_angles x{rows[0][1] / rows[1][1]:.2f}, "
            f"face_pyramids x{rows[0][2] / rows[1][2]:.2f}"
        )


# A solve that exhausts STEP_BUDGET or outlives TIMEOUT_S is reported as
# "stalled" rather than left to run for an hour.
STEP_BUDGET = 250
TIMEOUT_S = 600.0

_SOLVE_SNIPPET = """
import time
from polyforge import SolverOptions, build_metric, solve_path
from polyforge.catalog import doubly_covered_polygon
from polyforge.errors import SolverAbort
metric = build_metric(doubly_covered_polygon({n}))
t0 = time.perf_counter()
try:
    solve_path(metric, SolverOptions(max_steps={max_steps}))
except SolverAbort:
    print("stalled")
else:
    print(f"{{time.perf_counter() - t0:.3f}}")
"""


def bench_end_to_end(n=24):
    # Backend choice is fixed at import time, so each run gets a fresh
    # interpreter with POLYFORGE_KERNELS set.
    import os
    import subprocess
    import sys

    names = ("python", "compiled") if _core is not None else ("python",)
    print(f"\nfull solve, doubly covered {n}-gon (one run each, seconds):")
    for name in names:
        env = dict(os.environ, POLYFORGE_KERNELS=name)
        try:
            out = subprocess.run(
                [sys.executable, "-c", _SOLVE_SNIPPET.format(n=n, max_steps=STEP_BUDGET)],
                env=env,
                capture_output=True,
                text=True,
                check=True,
                timeout=TIMEOUT_S,
            ).stdout.strip()
        except subprocess.TimeoutExpired:
            out = "stalled"
        print(f"{name:<10} {out:>12}")


def backends():
    out = [("numpy", _numpy)]
    if _core is not None:
        out.append(("compiled", _core))
    else:
        print("compiled backend unavailable; benchmarking numpy alone")
    return out


if __name__ == "__main__":
    bench_batched()
    bench_end_to_end()
