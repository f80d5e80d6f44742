"""The installed package is the pipeline: every module in it is loaded by
the command line, and every function in it runs on some command-line
input, so none serves only the tests."""

import ast
import dataclasses
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import polyforge
from polyforge import catalog, cli, kernels, solver

# Ready-made developments for users and tests; the solve path never needs them.
NOT_ON_THE_PIPELINE = {"catalog"}

PACKAGE = Path(polyforge.__file__).resolve().parent


def test_cli_loads_every_module():
    modules = {p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    probe = (
        "import sys, polyforge.cli; "
        "print(' '.join(m.split('.', 1)[1] for m in sys.modules "
        "if m.startswith('polyforge.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        cwd=PACKAGE.parent,
    )
    loaded = set(proc.stdout.split())
    assert loaded == modules - NOT_ON_THE_PIPELINE


def _loaded_unused(code):
    """Run ``code`` in a fresh interpreter, then list, on the last line of
    its output, the loaded modules of scipy.sparse and scipy.spatial,
    which the pipeline does without."""
    probe = code + (
        "; import sys; print(' '.join(m for m in sys.modules "
        "if m.startswith(('scipy.sparse', 'scipy.spatial'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        cwd=PACKAGE.parent,
    )
    return proc.stdout.splitlines()[-1].split()


def test_cli_does_not_load_sparse_linalg():
    # The package's only factors are the solver's banded LUs, so it needs
    # no sparse matrices, and a flat body's outline is its fold edges, so
    # it needs no Qhull: only random hulls and roundtrip load
    # scipy.spatial, inside the functions that call it.
    assert _loaded_unused("import polyforge.cli") == []


def test_flat_solve_does_not_load_qhull(tmp_path):
    src = tmp_path / "square.json"
    src.write_text(catalog.doubly_covered_polygon(4).to_json())
    argv = ["solve", str(src), "--out", str(tmp_path / "square.obj"),
            "--report", str(tmp_path / "report.json")]
    code = f"from polyforge import cli; assert cli.main({argv!r}) == 0"
    assert _loaded_unused(code) == []
    assert json.loads((tmp_path / "report.json").read_text())["degenerate"]


def test_cli_does_not_load_mpmath():
    # Every pyramid is solved in doubles; mpmath serves only the test
    # oracle.
    probe = "import sys, polyforge.cli; print('mpmath' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        cwd=PACKAGE.parent,
    )
    assert proc.stdout.split() == ["False"]


# Runs a small command-line corpus under sys.setprofile and prints the
# (file, first line) of every package function that was entered.  The
# corpus: the catalog's own command, which writes its solids, a solid with
# a progress stream, JSON and merged OBJ output, a flat limit, a roundtrip
# whose path flips edges, a schema-invalid and a semantically invalid
# file, and a step budget of 1, which aborts with a state dump.
_CORPUS = r"""
import json, os, sys
from pathlib import Path

from polyforge import catalog, cli

work = Path(sys.argv[1])
called = set()


def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)


def solve(name, *extra):
    return cli.main(["solve", str(work / f"{name}.json"),
                     "--report", str(work / f"{name}.report.json"), *extra])


sys.setprofile(profile)
codes = [
    catalog.main([str(work)]),
    cli.main(["validate", str(work / "tetrahedron.json")]),
    solve("tetrahedron", "--out", str(work / "tetra.json"),
          "--progress", str(work / "tetra.jsonl")),
    solve("cube", "--out", str(work / "cube.obj"), "--merge-coplanar"),
    solve("doubled-triangle", "--out", str(work / "flat.obj")),
]
(work / "schema.json").write_text('{"triangles": []}')
(work / "unglued.json").write_text(
    '{"triangles": [{"sides": [1, 1, 1]}], "gluings": []}'
)
codes += [
    cli.main(["roundtrip", "--seed", "2", "--points", "6"]),
    cli.main(["validate", str(work / "schema.json")]),
    cli.main(["validate", str(work / "unglued.json")]),
    solve("cube", "--out", str(work / "abort.obj"), "--max-steps", "1"),
    solve("tetrahedron", "--out", str(work / "missing" / "tetra.obj")),
]
sys.setprofile(None)
entered = sorted(
    (os.path.realpath(c.co_filename), c.co_firstlineno) for c in called
)
print(json.dumps({"codes": codes, "entered": entered}))
"""


def _package_functions():
    """(file, first line) -> module.qualname for every function and method
    in the package sources; the first line of a decorated function is its
    first decorator's, as in its code object."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(str(path), first)] = prefix + child.name
                visit(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path, path.stem + ".")
    return out


def test_cli_runs_every_function(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _CORPUS, str(tmp_path)],
        capture_output=True,
        text=True,
        check=True,
        cwd=PACKAGE.parent,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    # catalog, validate, 3 solves, roundtrip, bad schema, bad metric,
    # abort, unwritable output
    assert result["codes"] == [0, 0, 0, 0, 0, 0, 1, 2, 3, 2]
    assert (tmp_path / "cube.report.dump.json").exists()

    entered = {tuple(pair) for pair in result["entered"]}
    never = sorted(
        name
        for key, name in _package_functions().items()
        if key not in entered and name.split(".", 1)[0] not in NOT_ON_THE_PIPELINE
    )
    assert never == []


def _load_tracing():
    """``perfbench/tracing.py``, loaded from its file without installing it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_resolve(tmp_path):
    # The traced benchmark patches these names and reads these result
    # fields; the tests under tests/ do not run it, so a rename would
    # break only the benchmark.
    tracing = _load_tracing()
    for owner, attr, name, _ in tracing.TARGETS:
        assert callable(getattr(owner, attr, None)), name
    assert isinstance(kernels.BACKEND, str)
    assert {"accepted", "newton_iters", "reason"} <= {
        f.name for f in dataclasses.fields(solver.StepResult)
    }

    src = tmp_path / "tetrahedron.json"
    src.write_text(catalog.tetrahedron().to_json())
    argv = ["solve", str(src), "--out", str(tmp_path / "t.obj"),
            "--report", str(tmp_path / "t.report.json")]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.case(0):
            code = cli.main(argv)
    finally:
        tracer.restore()
    assert code == 0
    # the counters read StepResult, PyramidBatch.refined and ApexSolve
    counts = tracer.counts
    assert counts["solver.steps_accepted"] > 0 and counts["solver.newton_iters"] > 0
    assert counts["polytope.rows"] > 0
    assert "embed.apex_iters" in counts
    # every package target ran under its wrapper (numpy.linalg's depend on
    # the solve's path)
    spans = {span[0] for span in tracer.spans}
    assert {name for _, _, name, _ in tracing.TARGETS if not name.startswith("linalg.")} <= spans
