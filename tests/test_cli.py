import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from polyforge import catalog, hull, solver, surface
from polyforge.cli import main, make_parser
from polyforge.errors import MetricError


@pytest.fixture
def tetra_file(tmp_path):
    path = tmp_path / "tetra.json"
    path.write_text(catalog.tetrahedron(1.0 / (2.0 * 2.0**0.5)).to_json())
    return path


@pytest.fixture
def cube_file(tmp_path):
    path = tmp_path / "cube.json"
    path.write_text(catalog.cube().to_json())
    return path


def test_validate_ok(tetra_file, capsys):
    assert main(["validate", str(tetra_file)]) == 0
    out = capsys.readouterr().out
    assert "4 vertices, 6 edges, 4 triangles" in out
    assert "deficit sum - 4*pi" in out


def test_validate_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", str(bad)]) == 1
    assert "forge:" in capsys.readouterr().err


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.json")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_validate_not_utf8(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"triangles": "\xe9"}')
    assert main(["validate", str(bad)]) == 1
    assert "forge: cannot read" in capsys.readouterr().err


def test_validate_unglued_side(tmp_path, capsys):
    doc = {
        "triangles": [{"sides": [1.0, 1.0, 1.0]}, {"sides": [1.0, 1.0, 1.0]}],
        "gluings": [[[0, 0], [1, 0]], [[0, 1], [1, 2]]],
    }
    bad = tmp_path / "open.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 2
    assert "not glued" in capsys.readouterr().err


def test_validate_torus_rejected(tmp_path, capsys):
    # flat torus: all corners glue to one vertex with cone angle 2*pi
    doc = {
        "triangles": [{"sides": [1.0, 1.0, 1.0]}] * 2,
        "gluings": [[[0, 0], [1, 0]], [[0, 1], [1, 1]], [[0, 2], [1, 2]]],
    }
    bad = tmp_path / "torus.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 2
    assert capsys.readouterr().err


def test_solve_tetra_writes_obj_and_report(tetra_file, tmp_path, capsys):
    out = tmp_path / "mesh.obj"
    report = tmp_path / "report.json"
    code = main(
        ["solve", str(tetra_file), "--out", str(out), "--report", str(report)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "4 vertices, 4 faces" in stdout

    lines = out.read_text().splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 4
    assert sum(1 for l in lines if l.startswith("f ")) == 4

    doc = json.loads(report.read_text())
    assert doc["schema"] == 1
    assert doc["n_vertices"] == 4
    assert doc["degenerate"] is False
    assert doc["kappa_inf_final"] <= 1e-8
    assert len(doc["r_final"]) == 4


def test_solve_is_deterministic(tetra_file, tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"mesh_{tag}.obj"
        report = tmp_path / f"report_{tag}.json"
        assert (
            main(["solve", str(tetra_file), "--out", str(out), "--report", str(report)])
            == 0
        )
        outs.append((out.read_bytes(), report.read_bytes()))
    assert outs[0] == outs[1]


def test_solve_json_output(tetra_file, tmp_path):
    out = tmp_path / "mesh.json"
    report = tmp_path / "report.json"
    assert (
        main(["solve", str(tetra_file), "--out", str(out), "--report", str(report)])
        == 0
    )
    doc = json.loads(out.read_text())
    assert len(doc["vertices"]) == 4
    assert doc["apex"] is not None


def test_solve_cube_merged(cube_file, tmp_path):
    out = tmp_path / "cube.obj"
    report = tmp_path / "report.json"
    code = main(
        [
            "solve",
            str(cube_file),
            "--merge-coplanar",
            "--out",
            str(out),
            "--report",
            str(report),
        ]
    )
    assert code == 0
    f_lines = [l for l in out.read_text().splitlines() if l.startswith("f ")]
    assert len(f_lines) == 6
    assert all(len(l.split()) == 5 for l in f_lines)
    assert json.loads(report.read_text())["n_faces"] == 6


def test_solve_progress_stream(tetra_file, tmp_path):
    out = tmp_path / "mesh.obj"
    report = tmp_path / "report.json"
    stream = tmp_path / "steps.jsonl"
    code = main(
        [
            "solve",
            str(tetra_file),
            "--out",
            str(out),
            "--report",
            str(report),
            "--progress",
            str(stream),
        ]
    )
    assert code == 0
    records = [json.loads(l) for l in stream.read_text().splitlines()]
    assert records[0]["t"] == 1.0
    assert records[-1]["t"] == 0.0  # the landing
    assert all({"t", "kappa_inf", "flips_so_far", "predictor_residual"} <= set(r) for r in records)
    assert records[0]["predictor_residual"] is None
    assert all(r["predictor_residual"] >= 0.0 for r in records[1:])


def test_solve_abort_writes_dump(cube_file, tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main(
        [
            "solve",
            str(cube_file),
            "--max-steps",
            "1",
            "--out",
            str(tmp_path / "m.obj"),
            "--report",
            str(report),
        ]
    )
    assert code == 3
    assert "solver abort" in capsys.readouterr().err
    dump = json.loads((tmp_path / "report.dump.json").read_text())
    assert dump["reason"]
    mesh = dump["mesh"]
    assert set(mesh) == {"vert", "ell", "twin"}
    twin = mesh["twin"]
    assert sorted(twin) == list(range(len(twin)))
    assert [twin[b] for b in twin] == list(range(len(twin)))


@pytest.mark.parametrize("argv", [["solve", "in.json"], ["roundtrip"]], ids=["solve", "roundtrip"])
def test_kappa_stop_is_not_an_option(argv, capsys):
    # the path ends by its own rules (landed at t = 0, or at
    # solver.KAPPA_STOP); argparse rejects the flag
    assert main(argv + ["--kappa-stop", "1e-6"]) == 2
    assert "unrecognized arguments: --kappa-stop" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-5"])
def test_max_steps_below_one_is_a_usage_error(value, cube_file, tmp_path, capsys):
    # rejected before the start state is built: no solve, no state dump
    argv = ["solve", str(cube_file), "--max-steps", value, "--out", str(tmp_path / "m.obj")]
    assert main(argv + ["--report", str(tmp_path / "report.json")]) == 2
    assert f"argument --max-steps: must be at least 1, got {value}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cube.json"]


def test_negative_seed_is_a_usage_error(monkeypatch, capsys):
    # a negative seed is not resampled into seed 0
    def sampled(*args, **kwargs):
        raise AssertionError("no hull is sampled")

    monkeypatch.setattr(hull, "random_sphere_development", sampled)
    assert main(["roundtrip", "--seed", "-3", "--points", "6"]) == 2
    assert "argument --seed: must be at least 0, got -3" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]], ids=["forge", "solve"])
def test_help_returns_zero(argv, capsys):
    # argparse ends --help by SystemExit(0), which main returns
    assert main(argv) == 0
    out = capsys.readouterr()
    assert out.out.startswith("usage: ") and out.err == ""


def test_option_defaults_are_the_solver_defaults():
    solve = make_parser().parse_args(["solve", "in.json"])
    assert solve.max_steps == solver.MAX_STEPS


def test_readme_lists_exactly_the_solve_options():
    # README's "`forge solve` options" section names every flag of the
    # parser and no other, so a flag cannot be added or removed silently
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("`forge solve` options:", 1)[1].split("\nExit codes:", 1)[0]
    parser = make_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {o for a in sub.choices["solve"]._actions for o in a.option_strings}
    assert set(re.findall(r"--[a-z][a-z-]*", section)) == flags - {"-h", "--help"}


@pytest.mark.parametrize("flag", ["--out", "--report", "--progress"])
def test_unwritable_output_is_a_bad_option(flag, tetra_file, tmp_path, capsys):
    paths = {
        "--out": tmp_path / "m.obj",
        "--report": tmp_path / "r.json",
        "--progress": tmp_path / "p.jsonl",
    }
    bad = tmp_path / "missing" / paths[flag].name
    paths[flag] = bad
    argv = ["solve", str(tetra_file)]
    for name, path in paths.items():
        argv += [name, str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"forge: cannot write {bad}: ")
    assert "Traceback" not in err
    # every output path is checked before the solve, so nothing is written
    assert not any(p.exists() for p in paths.values())


@pytest.mark.parametrize("flag", ["--out", "--report"])
def test_output_that_is_a_directory_is_a_bad_option(flag, tetra_file, tmp_path, capsys):
    paths = {"--out": tmp_path / "m.obj", "--report": tmp_path / "r.json"}
    paths[flag].mkdir()
    argv = ["solve", str(tetra_file)]
    for name, path in paths.items():
        argv += [name, str(path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"forge: cannot write {paths[flag]}: ")
    assert not any(p.is_file() for p in paths.values())


def test_unwritable_state_dump_is_a_bad_option(cube_file, tmp_path, capsys):
    # the report's directory is writable, but the dump's path is a directory
    report = tmp_path / "report.json"
    report.with_suffix(".dump.json").mkdir()
    argv = ["solve", str(cube_file), "--max-steps", "1", "--out", str(tmp_path / "m.obj")]
    assert main(argv + ["--report", str(report)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("forge: solver abort: step budget 1 exhausted")
    assert err[1].startswith(f"forge: cannot write {report.with_suffix('.dump.json')}: ")


def test_roundtrip_smoke(capsys):
    assert main(["roundtrip", "--seed", "1", "--points", "6"]) == 0
    out = capsys.readouterr().out
    assert "congruence RMS" in out
    rel = float(out.split("(")[1].split(" of")[0])
    assert rel <= 1e-4


def test_roundtrip_too_few_points(capsys):
    # a usage error from argparse, as a bad --seed is
    assert main(["roundtrip", "--points", "3"]) == 2
    assert "argument --points: must be at least 4, got 3" in capsys.readouterr().err


def test_roundtrip_bug_is_not_resampled(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("a bug, not a degenerate hull")

    monkeypatch.setattr(hull, "random_sphere_development", broken)
    with pytest.raises(TypeError, match="a bug"):
        main(["roundtrip", "--points", "6"])


def test_roundtrip_value_error_is_not_resampled(monkeypatch):
    # No sample of 4 to 12 sphere points at seeds 0 to 200 raises a
    # ValueError, so one from build_metric is a defect and propagates.
    def broken(dev):
        raise ValueError("a bug, not a degenerate hull")

    monkeypatch.setattr(surface, "build_metric", broken)
    with pytest.raises(ValueError, match="a bug"):
        main(["roundtrip", "--points", "6"])


def test_roundtrip_resamples_bad_metric(monkeypatch, capsys):
    real = surface.build_metric
    calls = []

    def first_fails(dev):
        calls.append(dev)
        if len(calls) == 1:
            raise MetricError("degenerate sample")
        return real(dev)

    monkeypatch.setattr(surface, "build_metric", first_fails)
    assert main(["roundtrip", "--seed", "1", "--points", "6"]) == 0
    assert len(calls) == 2
    assert "congruence RMS" in capsys.readouterr().out


def test_twisted_polygon_solves(tmp_path):
    path = tmp_path / "twist.json"
    path.write_text(catalog.twisted_double_polygon(6).to_json())
    out = tmp_path / "twist.obj"
    report = tmp_path / "report.json"
    assert (
        main(["solve", str(path), "--out", str(out), "--report", str(report)]) == 0
    )
    doc = json.loads(report.read_text())
    assert doc["n_vertices"] == 12
    assert doc["flips"] > 0
    assert not doc["degenerate"]


def test_unknown_log_level(tetra_file, monkeypatch, capsys):
    monkeypatch.setenv("FORGE_LOG", "chatty")
    assert main(["validate", str(tetra_file)]) == 2
    assert "unknown log level" in capsys.readouterr().err


def test_console_script_runs(tetra_file):
    proc = subprocess.run(
        [sys.executable, "-m", "polyforge.cli", "validate", str(tetra_file)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "4 vertices" in proc.stdout
