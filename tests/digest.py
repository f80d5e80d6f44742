"""One sha256 over the outputs of every benchmark workload.

Run from the root of a checkout:

    python tests/digest.py [--save FILE] [--against FILE]

Every case of ``perfbench.workloads.WORKLOADS`` runs once at seeds 1
and 2, in order, through its own ``run`` and ``collect``.  The digest
covers each case's report text, vertex bytes and face bytes, so two
trees whose digests agree gave byte-identical outputs on all of them.
Prints the case count and the digest per workload and overall, and per
workload the largest edge-length residual over the diameter: how far
the embedded vertices miss the final triangulation's side lengths.
BLAS is pinned to one thread, as the benchmark pins it.  Not a test module:
pytest does not collect this file.

For a change that moves outputs by design, ``--save FILE`` keeps each
run's vertices, faces and report (a NumPy ``.npz`` archive), and
``--against FILE`` compares this tree's runs with a saved set, per
workload: how many runs have equal face arrays, how many have equal sets
of oriented triangles (the same faces, perhaps listed in another order,
each perhaps starting at another corner), which runs have only the
latter, how many have bit-identical vertices, the
largest vertex move over the saved body's diameter, the largest relative
volume difference, the largest r_final difference over the saved
max |r_final|, the largest apex move over the saved body's diameter,
the largest ``apex_residual`` of this tree, the report keys that differ
in any run, and the runs whose step counts changed.  Save on a parent
checkout with the script copied in, then compare on the change.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)
PARTS = ("report", "vertices", "faces")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--save", metavar="FILE", help="keep every run's outputs in FILE")
    parser.add_argument("--against", metavar="FILE", help="compare with outputs saved in FILE")
    args = parser.parse_args(argv)

    from perfbench import run

    os.environ.update(run.THREAD_PINS)  # before numpy loads BLAS
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import numpy as np
    import workloads
    from polyforge import cli

    # Every case goes through cli.run_pipeline, looked up at call time;
    # keep its result for the edge-length residual.
    pipeline, last = cli.run_pipeline, []

    def kept(*args, **kw):
        last[:] = [pipeline(*args, **kw)]
        return last[0]

    cli.run_pipeline = kept

    saved = {}  # "workload/seed/index:case/part" -> array
    total, count = hashlib.sha256(), 0
    for name, make in workloads.WORKLOADS.items():
        digest, cases, chord = hashlib.sha256(), 0, 0.0
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as workdir:
                for k, case in enumerate(make(seed, workdir)):
                    with contextlib.redirect_stdout(io.StringIO()):  # forge solve's summary
                        raw = case.run()
                    out = case.collect(raw)
                    chord = max(chord, chord_error(last[0]))
                    for part in (out.report.encode(), out.vertices.tobytes(), out.faces.tobytes()):
                        digest.update(part)
                        total.update(part)
                    key = f"{name}/{seed}/{k}:{case.name}"
                    saved[f"{key}/report"] = np.array(out.report)
                    saved[f"{key}/vertices"] = np.asarray(out.vertices, dtype=float)
                    saved[f"{key}/faces"] = np.asarray(out.faces)
                    cases += 1
        count += cases
        print(f"{name}: {cases} cases, sha256 {digest.hexdigest()}, "
              f"max edge-length residual/diameter {chord:.2g}")
    print(f"all: {count} cases, sha256 {total.hexdigest()}")
    if args.save:
        with open(args.save, "wb") as f:
            np.savez_compressed(f, **saved)
    if args.against:
        with np.load(args.against, allow_pickle=False) as before:
            compare({key: before[key] for key in before.files}, saved)


def chord_error(pipe):
    """The largest | |v_i - v_j| - ell | over the sides of a pipeline
    result's final triangulation, over the body's diameter."""
    import numpy as np

    mesh, verts = pipe.solve.state.mesh, pipe.embedded.vertices
    # Side s runs from corner (s + 1) % 3 to corner (s + 2) % 3.
    chords = np.linalg.norm(verts[mesh.vert[:, [1, 2, 0]]] - verts[mesh.vert[:, [2, 0, 1]]], axis=-1)
    return float(np.abs(chords - mesh.ell).max()) / pipe.embedded.diameter


def compare(before, after):
    """Print, per workload, how the outputs ``after`` moved from ``before``."""
    import numpy as np  # loaded by main, after the thread pins

    runs = list(dict.fromkeys(key.rsplit("/", 1)[0] for key in after))  # in run order
    if set(runs) != {key.rsplit("/", 1)[0] for key in before}:
        raise SystemExit("the saved runs are not this tree's runs")
    by_workload = {}
    for key in runs:
        by_workload.setdefault(key.split("/", 1)[0], []).append(key)
    for name, keys in by_workload.items():
        faces = triangles = bits = 0
        dv = dvol = dr = dapex = residual = 0.0
        moved, reordered, keys_differ = [], [], set()
        for key in keys:
            old, new = ({p: d[f"{key}/{p}"] for p in PARTS} for d in (before, after))
            rep0, rep1 = json.loads(str(old["report"])), json.loads(str(new["report"]))
            keys_differ.update(k for k in rep0.keys() | rep1.keys() if rep0.get(k) != rep1.get(k))
            same = np.array_equal(old["faces"], new["faces"])
            oriented = same or np.array_equal(_oriented(old["faces"]), _oriented(new["faces"]))
            faces += same
            triangles += oriented
            if oriented and not same:
                reordered.append(key.split("/", 1)[1])
            v0, v1 = old["vertices"], new["vertices"]
            diam = max(float(np.linalg.norm(v0[:, None] - v0[None], axis=-1).max()), 1e-300)
            if v0.shape == v1.shape:
                bits += v0.tobytes() == v1.tobytes()
                dv = max(dv, float(np.linalg.norm(v1 - v0, axis=1).max()) / diam)
            else:
                dv = np.inf
            dapex = max(dapex, float(np.linalg.norm(np.subtract(rep1["apex"], rep0["apex"]))) / diam)
            residual = max(residual, rep1["apex_residual"])
            vol0, vol1 = rep0["volume"], rep1["volume"]
            if vol0 != vol1:
                dvol = max(dvol, abs(vol1 - vol0) / max(abs(vol0), abs(vol1)))
            r0, r1 = np.array(rep0["r_final"]), np.array(rep1["r_final"])
            if r0.shape == r1.shape:
                dr = max(dr, float(np.abs(r1 - r0).max() / np.abs(r0).max()))
            else:
                dr = np.inf
            steps0, steps1 = (f"{r['steps_accepted']}/{r['steps_rejected']}" for r in (rep0, rep1))
            if steps0 != steps1:
                moved.append(f"{key.split('/', 1)[1]} {steps0} -> {steps1}")
        print(
            f"{name}: faces equal {faces}/{len(keys)}, as oriented triangles "
            f"{triangles}/{len(keys)}, vertices bit-identical {bits}/{len(keys)}, "
            f"max |dv|/diameter {dv:.2g}, max rel volume {dvol:.2g}, "
            f"max rel r_final {dr:.2g}, max |d apex|/diameter {dapex:.2g}, "
            f"max apex_residual {residual:.2g}"
        )
        print("  report keys changed: " + (", ".join(sorted(keys_differ)) or "none"))
        print("  faces reordered: " + (", ".join(reordered) if reordered else "none"))
        print("  step counts changed: " + (", ".join(moved) if moved else "none"))


def _oriented(faces):
    """An (F, 3) face array as a canonical array of oriented triangles:
    each row rotated to start at its least label, the rows then sorted.
    Two arrays that list the same oriented triangles map to one array."""
    import numpy as np

    faces = np.asarray(faces)
    start = np.argmin(faces, axis=1)[:, None]
    rotated = np.take_along_axis(faces, (start + np.arange(3)) % 3, axis=1)
    return rotated[np.lexsort(rotated.T[::-1])]


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    main()
