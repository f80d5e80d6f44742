"""Census of the irregular-input recipe families, one line per case.

Run from the root of a checkout:

    python tests/corpus.py [--seeds 0 1 2 3] [--max-steps 3000]

Two families come from one recipe, per seed: ``rng =
np.random.default_rng(seed)``, then for each n in (6, 10, 16, 24, 32,
40), in order,

* draw ``ang = sort(rng.uniform(0, 2 pi, n))``.  The *irregular doubled
  polygon* has vertices (cos ang, 0.6 sin ang), fanned from vertex 0 and
  glued rim to rim as in ``catalog.doubly_covered_polygon``, with its
  side lengths taken from the points;
* then draw ``ang2`` the same way.  The *frustum* is the convex hull of
  (cos ang, sin ang, 0) and (0.5 cos ang2, 0.5 sin ang2, 0.7).

Three thin hulls follow: the n = 40 sphere hull of seed [3, 40] scaled to
the 1:1:20 cigar and to the 100:100:1 and 1000:1000:1 discs.  Each case
runs through ``cli.run_pipeline`` with a step budget of ``--max-steps``
attempts and prints pass or fail, the accepted/rejected step counts
(up to the abort, for a failure), the wall time, the path's stop or
the failure's reason, and for a passed 3-D case the largest edge-length
residual over the diameter (``digest.chord_error``).  A summary per
family ends the output.  BLAS is pinned to one thread.  Not a test
module: pytest does not collect this file.

``--save FILE`` keeps each case's outcome (a JSON object by case name),
and ``--against FILE`` compares this tree's census with a saved one: it
lists every case whose outcome, steps or reason (but for the t it
names) changed, with both lines, and the per-family totals of both.
Save on a parent checkout with the script copied in, then compare on
the change, with the same ``--seeds`` and ``--max-steps``.
"""

import argparse
import json
import math
import os
import re
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (6, 10, 16, 24, 32, 40)
THIN_AXES = {
    "cigar-1-1-20": (1.0, 1.0, 20.0),
    "disc-100-1": (100.0, 100.0, 1.0),
    "disc-1000-1": (1000.0, 1000.0, 1.0),
}


def irregular_doubled_polygon(points):
    """Two copies of the convex polygon ``points`` (counterclockwise, (n,
    2)), fanned from vertex 0 and glued rim to rim, with the gluing of
    ``catalog.doubly_covered_polygon``."""
    import numpy as np
    from polyforge.surface import Development, twin_table

    n = len(points)
    m = n - 2

    def dist(a, b):
        return float(np.hypot(*(points[a] - points[b])))

    sides = np.empty((2 * m, 3))
    for i in range(m):
        edge = dist(i + 1, i + 2)
        sides[i] = (edge, dist(0, i + 2), dist(0, i + 1))
        sides[m + i] = (edge, dist(0, i + 1), dist(0, i + 2))
    gluings = []
    for i in range(1, m):
        gluings.append(((i, 2), (i - 1, 1)))
        gluings.append(((m + i - 1, 2), (m + i, 1)))
    for i in range(m):
        gluings.append(((i, 0), (m + i, 0)))
    gluings.append(((0, 2), (m, 1)))
    gluings.append(((m - 1, 1), (2 * m - 1, 2)))
    return Development(sides=sides, twin=twin_table(len(sides), gluings))


def hull_development(points):
    """The development of the convex hull of ``points`` ((k, 3)), its
    triangles oriented counterclockwise from outside."""
    import numpy as np
    from polyforge.hull import development_from_triangles
    from scipy.spatial import ConvexHull

    hull = ConvexHull(points)
    corners = hull.simplices.astype(np.int64)
    i, j, k = corners.T
    normal = np.cross(points[j] - points[i], points[k] - points[i])
    inward = np.einsum("fx,fx->f", normal, hull.equations[:, :3]) < 0
    corners[inward] = corners[inward][:, [0, 2, 1]]
    return development_from_triangles(points, corners)


def cases(seeds):
    """(family, name, development) for every case, in census order."""
    import numpy as np
    from polyforge import hull

    for seed in seeds:
        rng = np.random.default_rng(seed)
        for n in SIZES:
            ang = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
            polygon = np.column_stack([np.cos(ang), 0.6 * np.sin(ang)])
            yield "irregular", f"polygon-{n}-seed{seed}", irregular_doubled_polygon(polygon)
            ang2 = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
            base = np.column_stack([np.cos(ang), np.sin(ang), np.zeros(n)])
            top = np.column_stack([0.5 * np.cos(ang2), 0.5 * np.sin(ang2), np.full(n, 0.7)])
            yield "frustum", f"frustum-{n}+{n}-seed{seed}", hull_development(np.vstack([base, top]))
    _, points, corner_point = hull.random_sphere_development(40, seed=[3, 40])
    for name, axes in THIN_AXES.items():
        scaled = points * np.asarray(axes)
        yield "thin", name, hull.development_from_triangles(scaled, corner_point)


def run_case(dev, max_steps):
    """(passed, accepted/rejected steps, reason, seconds, edge-length
    residual over the diameter or None) of one case; the residual only
    for a passed case that is not degenerate."""
    from digest import chord_error
    from polyforge import cli
    from polyforge.errors import PolyforgeError
    from polyforge.surface import build_metric

    seen = []

    def progress(state):
        seen[:] = [state]

    start = time.perf_counter()
    try:
        out = cli.run_pipeline(build_metric(dev), max_steps=max_steps, progress=progress)
    except PolyforgeError as exc:
        # progress saw the path's one state, which steps update in place
        state = seen[0] if seen else None
        steps = f"{state.steps_accepted}/{state.steps_rejected}" if state else "-"
        return False, steps, str(exc).splitlines()[0], time.perf_counter() - start, None
    seconds = time.perf_counter() - start
    rep = out.report
    steps = f"{rep['steps_accepted']}/{rep['steps_rejected']}"
    chord = None if rep["degenerate"] else chord_error(out)
    return True, steps, out.solve.state.stop, seconds, chord


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3])
    parser.add_argument("--max-steps", type=int, default=3000)
    parser.add_argument("--save", metavar="FILE", help="keep every case's outcome in FILE")
    parser.add_argument("--against", metavar="FILE", help="compare with outcomes saved in FILE")
    args = parser.parse_args(argv)

    os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
    sys.path.insert(0, str(ROOT / "src"))

    census = {}
    for family, name, dev in cases(args.seeds):
        passed, steps, reason, seconds, chord = run_case(dev, args.max_steps)
        census[name] = {"family": family, "passed": passed, "steps": steps, "reason": reason}
        tail = "" if chord is None else f"  chord/diameter {chord:.2g}"
        print(f"{name:24s} {'pass' if passed else 'FAIL'} {steps:>9s} {seconds:6.2f}s  {reason}{tail}", flush=True)
    for family, (passed, failed) in tally(census).items():
        print(f"{family}: {passed} passed, {failed} failed")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(census, f, indent=1)
    if args.against:
        with open(args.against) as f:
            compare(json.load(f), census)


def tally(census):
    """{family: [passed, failed]} of a census, families in case order."""
    out = {}
    for case in census.values():
        out.setdefault(case["family"], [0, 0])[0 if case["passed"] else 1] += 1
    return out


def _line(case):
    return f"{'pass' if case['passed'] else 'FAIL'} {case['steps']}  {case['reason']}"


def _outcome(case):
    """A case's pass or fail, steps and reason without the t it names."""
    return case["passed"], case["steps"], re.sub(r" at t=[^:]*", "", case["reason"])


def compare(before, after):
    """Print every case whose outcome moved from ``before`` to ``after``,
    then the per-family totals of both."""
    if set(before) != set(after):
        raise SystemExit("the saved census does not have this census's cases")
    changed = [name for name in after if _outcome(before[name]) != _outcome(after[name])]
    print(f"cases changed: {len(changed)} of {len(after)}")
    for name in changed:
        print(f"  {name}: {_line(before[name])} -> {_line(after[name])}")
    old, new = tally(before), tally(after)
    for family in new:
        print(f"{family}: {old[family][0]}/{old[family][1]} -> {new[family][0]}/{new[family][1]} passed/failed")


if __name__ == "__main__":
    main()
