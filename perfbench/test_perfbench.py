"""Tests of the benchmark itself.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
They use tiny corpora, so they say nothing about performance.
"""

import json
import shutil
import subprocess
import sys
import time

import pytest

import run

run.import_package()

import tracing  # noqa: E402
import workloads  # noqa: E402
from polyforge import solver, triangulation  # noqa: E402


@pytest.fixture(scope="module")
def meter():
    with run.SpeedMeter() as m:
        yield m


def _runs(passes):
    return [r for p in passes for r in p]


def test_benchmark_json_names_what_the_command_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"][1:] == ["perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracing.METRICS
    )
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)


@pytest.mark.parametrize(
    "build",
    [
        lambda tmp: workloads.hull_large(1, tmp, sizes=(12,)),
        lambda tmp: [
            c for c in workloads.catalog_small(1, tmp)
            if c.name in ("tetrahedron", "cube", "twisted6", "hull20-0")
        ],
        lambda tmp: workloads.flat_limit(1, tmp, polygons=(4,)),
    ],
    ids=["hull-large", "catalog-small", "flat-limit"],
)
def test_smoke_each_workload(tmp_path, build, meter):
    cases = build(tmp_path)
    passes = run.measure(cases, 0.0, meter)
    run.check_repeats(passes)
    runs = _runs(passes)
    assert [r.case for r in runs] == [c.name for c in cases]
    assert not [(r.case, r.error, r.problem) for r in runs if r.failed]
    assert run.result(runs, {}) == {
        "correct": True, "attempted": len(cases), "failed": 0, "metrics": {},
    }


def test_step_budget_counts_as_failure_not_dropped(tmp_path, meter):
    cases = workloads.flat_limit(1, tmp_path, polygons=(4,), max_steps=1)
    runs = _runs(run.measure(cases, 0.0, meter))
    assert len(runs) == 2
    assert all(r.error.startswith("SolverAbort: step budget 1 exhausted") for r in runs)
    assert all(r.timing.seconds > 0.0 for r in runs)
    doc = run.result(runs, {})
    assert (doc["attempted"], doc["failed"], doc["correct"]) == (2, 2, True)


def test_wrong_output_fails_the_check(tmp_path, meter):
    case = workloads.catalog_small(1, tmp_path)[0]
    case.checks = (workloads.check_cube,)  # a tetrahedron is not the unit cube
    [[bad]] = run.measure([case], 0.0, meter)
    assert bad.problem.startswith("cube volume")
    assert run.result([bad], {})["correct"] is False


def test_changed_report_on_repeat_is_a_problem():
    first = run.CaseRun("a", run.Timing(), report="x")
    again = run.CaseRun("a", run.Timing(), report="y")
    run.check_repeats([[first], [again]])
    assert first.problem is None
    assert again.problem == "report differs from the first run of this case"


def test_tracing_changes_no_report_and_accounts_every_interval(tmp_path, meter):
    cases = workloads.hull_large(2, tmp_path, sizes=(12,)) + [
        c for c in workloads.catalog_small(2, tmp_path) if c.name == "cube"
    ]
    [plain] = run.measure(cases, 0.0, meter)
    original = solver.step, solver.weighted_delaunay, triangulation.weighted_delaunay
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert solver.weighted_delaunay is not original[1]
        assert solver.weighted_delaunay is triangulation.weighted_delaunay
        [traced] = run.measure(cases, 0.0, meter, tracer)
    finally:
        tracer.restore()
    assert (solver.step, solver.weighted_delaunay, triangulation.weighted_delaunay) == original

    assert [r.report for r in traced] == [r.report for r in plain]
    assert all(r.report for r in plain)

    names = {name for name, *_ in tracer.spans}
    assert {"case", "cli.main", "solver.step", "triangulation.weighted_delaunay",
            "polytope.solve_pyramids", "kernels.face_pyramids", "linalg.svd",
            "embed.place_faces", "surface.parse_development"} <= names
    assert {case for *_, case in tracer.spans} == {"0:hull12", "0:cube"}

    m = tracer.metrics(1, 0.25)
    layers = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert m["trace.case_s"] == pytest.approx(layers, rel=1e-9)
    assert abs(m["trace.unattributed_s"]) < 1e-9
    assert m["trace.overhead_s"] == 0.25
    assert m["solver.step_calls"] == m["solver.steps_accepted"] + m["solver.steps_rejected"]
    assert set(m) == {name for name, *_ in tracing.METRICS}


def test_reject_buckets():
    assert tracing.reject_bucket("edge dihedral exceeded pi") == "dihedral"
    assert tracing.reject_bucket("no convergence in 8 iterations") == "newton"
    assert tracing.reject_bucket("PyramidError: no apex pyramid over faces [3]") == "exception"


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "polyforge" in proc.stderr


def test_meter_takes_probe_time_out_and_scales_by_probe_rate(meter):
    with meter.timing() as timing:
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
    assert len(timing.rates) >= 4  # before, ticks every 0.1 s, after
    assert timing.spent > 0.0
    assert timing.seconds == pytest.approx(0.35 - timing.spent, abs=0.02)
    mean_rate = sum(timing.rates) / len(timing.rates)
    assert timing.scaled == pytest.approx(timing.seconds * run.SpeedMeter.REF_S * mean_rate)
