"""Command-line front end: validate developments, run the full
reconstruction pipeline, export meshes and reports.

Exit codes: 0 success; 1 malformed input (bad JSON or schema); 2 invalid
metric or bad usage; 3 pipeline failure (solver abort or embedding that
does not close).
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import QhullError

from . import embed, hull, solver, surface
from .errors import (
    DevelopmentError,
    EmbedError,
    MetricError,
    PolyforgeError,
    SchemaError,
    SolverAbort,
)

log = logging.getLogger("polyforge")

EXIT_OK = 0
EXIT_SCHEMA = 1
EXIT_INVALID = 2
EXIT_PIPELINE = 3


def _setup_logging(level_name):
    name = os.environ.get("FORGE_LOG", level_name or "warning")
    level = getattr(logging, name.upper(), None)
    if not isinstance(level, int):
        print(f"forge: unknown log level {name!r}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)
    logging.basicConfig(
        stream=sys.stderr, level=level, format="%(levelname)s %(name)s: %(message)s"
    )


def _load_metric(path):
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"forge: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_SCHEMA) from exc
    try:
        dev = surface.parse_development(text)
    except SchemaError as exc:
        print(f"forge: {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_SCHEMA) from exc
    except DevelopmentError as exc:
        for v in exc.violations:
            print(f"forge: {path}: {v}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID) from exc
    try:
        return surface.build_metric(dev)
    except MetricError as exc:
        print(f"forge: {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID) from exc


def cmd_validate(args):
    metric = _load_metric(args.input)
    n, e, f = metric.n_vertices, metric.n_edges, metric.n_faces
    print(f"{n} vertices, {e} edges, {f} triangles")
    for v in range(n):
        print(
            f"vertex {v}: cone angle {metric.cone_angles[v]:.12g}, "
            f"deficit {metric.deficits[v]:.12g}"
        )
    residual = float(metric.deficits.sum()) - 4.0 * math.pi
    print(f"deficit sum - 4*pi = {residual:.3e}")
    return EXIT_OK


@dataclass
class PipelineResult:
    solve: solver.SolveResult
    embedded: embed.EmbeddedPolytope
    apex: embed.ApexSolve
    report: dict


def run_pipeline(
    metric,
    kappa_stop=solver.SolverOptions.kappa_stop,
    merge_coplanar=False,
    max_steps=solver.SolverOptions.max_steps,
    progress=None,
) -> PipelineResult:
    """Solve the curvature path, embed the result and locate the apex."""
    opts = solver.SolverOptions(
        kappa_stop=kappa_stop, max_steps=max_steps, progress=progress
    )
    result = solver.solve_path(metric, opts)
    embedded = embed.place_faces(result.polytope, merge_coplanar=merge_coplanar)
    apex = embed.solve_apex(embedded.vertices, result.kappa1)
    embedded.apex = apex.point
    return PipelineResult(
        solve=result, embedded=embedded, apex=apex, report=build_report(result, embedded, apex)
    )


def build_report(result, embedded, apex):
    """Everything a rerun should reproduce byte for byte."""
    faces = embedded.merged_faces if embedded.merged_faces is not None else embedded.faces
    return {
        "schema": 1,
        "r_initial": float(result.state.r_init),
        "flip_events": [e.as_dict() for e in result.events],
        "kappa_inf_final": float(np.abs(result.polytope.kappa).max()),
        "closure_residual": float(embedded.closure_residual),
        "apex": [float(x) for x in apex.point],
        "apex_residual": float(apex.residual),
        "apex_boundary_distance": float(
            embed.apex_boundary_distance(embedded, apex.point)
        ),
        "r_final": [float(x) for x in result.r],
        "volume": float(embedded.volume),
        "degenerate": bool(embedded.degenerate),
        "n_vertices": int(embedded.n_vertices),
        "n_faces": len(faces),
        "steps_accepted": int(result.state.steps_accepted),
        "steps_rejected": int(result.state.steps_rejected),
        "flips": int(result.state.flips),
    }


def _dump_json(doc, path):
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def cmd_solve(args):
    metric = _load_metric(args.input)

    progress_file = None
    progress = None
    if args.progress:
        progress_file = open(args.progress, "w")

        def progress(state):
            record = state.records[-1]
            progress_file.write(json.dumps(record, sort_keys=True) + "\n")
            progress_file.flush()
            log.info(
                "t=%.3e |kappa|=%.3e flips=%d", record["t"], record["kappa_inf"],
                record["flips_so_far"],
            )

    try:
        pipe = run_pipeline(
            metric,
            kappa_stop=args.kappa_stop,
            merge_coplanar=args.merge_coplanar,
            max_steps=args.max_steps,
            progress=progress,
        )
    except ValueError as exc:
        print(f"forge: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except SolverAbort as exc:
        dump_path = Path(args.report).with_suffix(".dump.json")
        if exc.state_dump is not None:
            _dump_json(exc.state_dump, dump_path)
        print(f"forge: solver abort: {exc}; state dump at {dump_path}", file=sys.stderr)
        return EXIT_PIPELINE
    except EmbedError as exc:
        print(f"forge: embedding failed: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    finally:
        if progress_file is not None:
            progress_file.close()

    out = Path(args.out)
    if out.suffix == ".json":
        out.write_text(pipe.embedded.as_json() + "\n")
    else:
        out.write_text(embed.as_obj(pipe.embedded, merged=args.merge_coplanar))
    _dump_json(pipe.report, args.report)
    log.info("wrote %s and %s", out, args.report)
    print(
        f"{pipe.report['n_vertices']} vertices, {pipe.report['n_faces']} faces, "
        f"volume {pipe.report['volume']:.12g}"
        + (" (degenerate)" if pipe.report["degenerate"] else "")
    )
    return EXIT_OK


def cmd_roundtrip(args):
    if args.points < 4:
        print("forge: roundtrip needs at least 4 points", file=sys.stderr)
        return EXIT_INVALID
    seed = args.seed
    for attempt in range(10):
        try:
            dev, points, corner_point = hull.random_sphere_development(
                args.points, seed=seed + attempt
            )
            metric = surface.build_metric(dev)
            break
        except (ValueError, QhullError, PolyforgeError) as exc:
            # What a degenerate sample raises; anything else is a bug.
            log.warning("resampling after degenerate hull: %s", exc)
    else:
        print("forge: could not sample a usable hull", file=sys.stderr)
        return EXIT_PIPELINE

    try:
        pipe = run_pipeline(metric, kappa_stop=args.kappa_stop)
    except ValueError as exc:
        print(f"forge: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (SolverAbort, EmbedError) as exc:
        print(f"forge: roundtrip failed: {exc}", file=sys.stderr)
        return EXIT_PIPELINE

    original = np.empty_like(pipe.embedded.vertices)
    original[metric.corner_vertex.ravel()] = points[corner_point.ravel()]
    rms, reflected = embed.congruence_check(pipe.embedded, original)
    diam = pipe.embedded.diameter
    print(
        f"congruence RMS = {rms:.6e} ({rms / diam:.3e} of diameter"
        + (", reflected)" if reflected else ")")
    )
    return EXIT_OK


@functools.cache
def make_parser():
    """The ``forge`` argument parser, built once per process."""
    defaults = solver.SolverOptions  # its class attributes are the defaults
    parser = argparse.ArgumentParser(
        prog="forge",
        description="Reconstruct convex polytopes from developments "
        "(glued Euclidean triangles).",
    )
    parser.add_argument("--log", default=None, help="log level (FORGE_LOG overrides)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a development and its cone metric")
    p.add_argument("input")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="reconstruct the polytope realizing a development")
    p.add_argument("input")
    p.add_argument("--out", default="mesh.obj", help="mesh output (.obj or .json)")
    p.add_argument("--report", default="report.json")
    p.add_argument("--progress", default=None, help="JSONL step stream")
    p.add_argument("--kappa-stop", type=float, default=defaults.kappa_stop)
    p.add_argument("--max-steps", type=int, default=defaults.max_steps)
    p.add_argument("--merge-coplanar", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("roundtrip", help="hull -> development -> solve -> compare")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--points", type=int, default=8)
    p.add_argument("--kappa-stop", type=float, default=defaults.kappa_stop)
    p.set_defaults(func=cmd_roundtrip)
    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        _setup_logging(args.log)
        return args.func(args)
    except SystemExit as exc:
        return exc.code
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
