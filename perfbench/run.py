"""End-to-end benchmark of the polyforge reconstruction pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hull-large --seed 1 --seconds 30 --trace 0

Workloads: ``hull-large``, ``catalog-small`` and ``flat-limit`` (see
``workloads.py`` for what each stresses and why).  The seed generates
the inputs; the package under test is imported from ``src/`` of the
checkout.  All cases run in this one process, one after another: a
closed loop with a single client.  BLAS is pinned to one thread.

A run repeats passes over the workload's cases until ``--seconds`` would
be exceeded, always completing at least one pass, and checks every
result.  Timings in the result are scaled to a reference CPU speed by
``SpeedMeter``; the unscaled ones are printed next to them.

* ``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median pass
  time, summed over the cases), ``setup_s`` (median of fresh processes
  that import the package and build the inputs) and ``rss_peak_mb``.
* ``--trace 1`` spends half the time untraced and half with every layer's
  public functions wrapped (``tracing.py``), and reports per-layer
  metrics per pass, including the tracing overhead.

Human-readable lines, among them ``failed_frac``, ``case_s.p50``,
``case_s.p90`` where a run has at least 100 case timings, per-case times
and the environment record, precede
the result, which is the last line of standard output: one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A case that
raises, exhausts its step budget or fails a check counts as failed; only
a failed check or a report that differs between repeats of a case makes
``correct`` false.  Exit code 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("hull-large", "catalog-small", "flat-limit")
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("rss_peak_mb", "MiB", "lower"),
)
SETUP_REPEATS = 3
P90_MIN_SAMPLES = 100  # so that ten timings lie beyond the 90th percentile
# Applied identically to every commit measured; recorded in the output.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Timing:
    seconds: float = 0.0  # wall time of the block, probes taken out
    scaled: float = 0.0  # the same at the reference speed
    spent: float = 0.0  # time the probes took
    rates: list = field(default_factory=list)  # 1 / probe time


class SpeedMeter:
    """How fast this CPU runs while a block is timed.

    On a shared host each CPU alternates, every few tenths of a second
    and independently of the other, between phases in which the same
    code takes up to 1.6 times longer.  Repeats of one n=320 hull case
    spread 17 % between quartiles for that reason alone.  The meter runs
    a probe of about 1 ms (interpreter loop, dict updates, a small SVD;
    no polyforge code) before a block, every PERIOD_S during it from a
    timer signal, and after it.  The block's time without the probes,
    times REF_S times the mean probe rate, is its time at the reference
    speed; on the same repeats that spread 3 %.

    Use it as a context manager around the whole run: it owns SIGALRM.
    """

    PERIOD_S = 0.1
    # The probe's time in the fast phases of a shared 2-vCPU 2.0 GHz
    # virtual machine; its slow phases take 1.5 ms.
    REF_S = 0.0009

    def __init__(self):
        import numpy as np

        self._svd = np.linalg.svd  # bound before tracing can wrap it
        self._matrix = np.random.default_rng(0).standard_normal((24, 24))
        self._timing = None
        self._span = contextlib.nullcontext
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def probe(self):
        start = time.perf_counter()
        total = 0
        for i in range(10_000):
            total += i * i
        table = {}
        for i in range(3_000):
            table[i % 977] = i
        self._svd(self._matrix)
        return time.perf_counter() - start

    def _tick(self, signum, frame):
        timing = self._timing
        if timing is None:  # a tick still pending after the block ended
            return
        start = time.perf_counter()
        with self._span("bench.probe"):
            timing.rates.append(1.0 / self.probe())
        timing.spent += time.perf_counter() - start

    @contextlib.contextmanager
    def timing(self, span=None):
        """Time the block; ``span(name)`` records the probes as spans."""
        timing = Timing(rates=[1.0 / self.probe()])
        self._span = span or contextlib.nullcontext
        self._timing = timing
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        start = time.perf_counter()
        try:
            yield timing
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
            self._timing = None
            timing.rates.append(1.0 / self.probe())
            timing.seconds = elapsed - timing.spent
            timing.scaled = timing.seconds * self.REF_S * statistics.fmean(timing.rates)


@dataclass
class CaseRun:
    case: str
    timing: Timing
    report: str | None = None
    error: str | None = None  # raised, exited non-zero or ran out of steps
    problem: str | None = None  # finished but failed a correctness check

    @property
    def failed(self):
        return self.error is not None or self.problem is not None


def import_package():
    """Import polyforge from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import polyforge
    except ImportError as exc:
        raise BenchError(f"cannot import polyforge from {src}: {exc}") from exc
    where = Path(polyforge.__file__).resolve().parent
    if where != src / "polyforge":
        raise BenchError(f"polyforge imported from {where}, not from {src}")
    return polyforge


def run_case(case, meter, tracer=None, case_id=None):
    sink = io.StringIO()  # forge solve prints a summary line per case
    error = None
    root = contextlib.nullcontext() if tracer is None else tracer.case(case_id)
    with (contextlib.redirect_stdout(sink),
          meter.timing(tracer and tracer.span) as timing, root):
        try:
            raw = case.run()
        except Exception as exc:  # a failing case is a result, not a crash
            error = f"{type(exc).__name__}: {exc}"
    if error is not None:
        return CaseRun(case.name, timing, error=error)
    try:
        report, problem = case.verify(raw)
    except Exception as exc:  # unreadable output fails the check
        report, problem = None, f"output unreadable: {type(exc).__name__}: {exc}"
    return CaseRun(case.name, timing, report=report, problem=problem)


def measure(cases, budget, meter, tracer=None):
    """Passes over ``cases`` until another one would overrun ``budget``."""
    passes = []
    start = time.perf_counter()
    while True:
        k = len(passes)
        passes.append([run_case(c, meter, tracer, f"{k}:{c.name}") for c in cases])
        elapsed = time.perf_counter() - start
        if elapsed * (k + 2) / (k + 1) > budget:
            return passes


def check_repeats(passes):
    """Identical input must give a byte-identical report on every pass."""
    first = {}
    for runs in passes:
        for run in runs:
            if run.report is None:
                continue
            ref = first.setdefault(run.case, run.report)
            if run.report != ref and run.problem is None:
                run.problem = "report differs from the first run of this case"


def time_setups(workload, seed, workdir):
    """Set-up time of fresh processes: interpreter start, imports, corpus
    generation and writing the inputs, up to the first case.  Each child
    meters its own CPU and reports when it was ready on CLOCK_MONOTONIC,
    which is system-wide."""
    samples = []
    for k in range(SETUP_REPEATS):
        target = workdir / f"setup{k}"
        target.mkdir()
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only", str(target)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up process failed:\n{proc.stderr}")
        child = json.loads(proc.stdout.splitlines()[-1])
        seconds = child["ready"] - start - child["spent"]
        scaled = seconds * SpeedMeter.REF_S * statistics.fmean(child["rates"])
        samples.append(Timing(seconds, scaled, child["spent"], child["rates"]))
    return samples


def setup_only(workload, seed, target):
    """The child side of ``time_setups``."""
    with SpeedMeter() as meter, meter.timing() as timing:
        import workloads

        workloads.WORKLOADS[workload](seed, target)
        ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    print(json.dumps({"ready": ready, "spent": timing.spent, "rates": timing.rates}))


def blas_threads():
    """Threads of every OpenBLAS loaded into this process, by library."""
    found = {}
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                found[Path(path).name] = int(fn())
                break
    return found


def environment(workload, seed):
    import mpmath
    import numpy
    import scipy

    from polyforge import kernels

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            ).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "polyforge").rglob("*")):
        if path.suffix in (".py", ".pyx"):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "backend": kernels.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "speed_ref_s": SpeedMeter.REF_S,
    }


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def walls(passes, key):
    return [sum(getattr(r.timing, key) for r in p) for p in passes]


def summarize(args, runs, metrics):
    """Lines a person reads; the driver reads only the JSON after them."""
    lines = [f"perfbench {args.workload} seed={args.seed} trace={args.trace}"]
    failed = [r for r in runs if r.failed]
    lines.append(
        f"  failed_frac = {len(failed) / len(runs):.4f} ratio "
        f"({len(failed)} of {len(runs)} case runs)"
    )
    for run in failed:
        lines.append(f"    {run.case}: {run.error or run.problem}")
    by_case = {}
    for run in runs:
        by_case.setdefault(run.case, []).append(run.timing)
    for case, timings in by_case.items():
        lines.append(
            f"  case {case}: median {statistics.median(t.scaled for t in timings):.4g} s "
            f"(unscaled {statistics.median(t.seconds for t in timings):.4g} s) "
            f"over {len(timings)} runs"
        )
    for name, entry in metrics.items():
        lines.append(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    return lines


def end_to_end(passes, setups):
    """The gated metrics, plus summary lines with the per-case latency
    percentiles.  Those are not gated: on the one-pass workloads the
    median case is a single case, whose scaled time still spreads 9-12 %
    between runs, and a 90th percentile needs 100 case timings."""
    values = {
        "wall_s": statistics.median(walls(passes, "scaled")),
        "setup_s": statistics.median(t.scaled for t in setups),
        "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    times = [r.timing.scaled for p in passes for r in p]
    raw_times = [r.timing.seconds for p in passes for r in p]
    lines = [
        "  unscaled: wall_s = {:.6g} s, setup_s = {:.6g} s".format(
            statistics.median(walls(passes, "seconds")),
            statistics.median(t.seconds for t in setups)),
        "  pass walls (s): " + " ".join(f"{w:.4g}" for w in walls(passes, "scaled")),
        "  set-ups (s): " + " ".join(f"{t.scaled:.4g}" for t in setups),
        f"  case_s.p50 = {statistics.median(times):.6g} s "
        f"(unscaled {statistics.median(raw_times):.6g} s; n={len(times)})",
    ]
    if len(times) >= P90_MIN_SAMPLES:
        lines.append(f"  case_s.p90 = {percentile(times, 90):.6g} s "
                     f"(unscaled {percentile(raw_times, 90):.6g} s; n={len(times)})")
    else:
        lines.append(f"  case_s.p90 not reported: {len(times)} case timings, "
                     f"needs {P90_MIN_SAMPLES}")
    return values, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", default=None,
                        help="build the inputs into DIR, print when ready, exit")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must not be negative")
    os.environ.update(THREAD_PINS)  # before numpy loads BLAS
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


def run(args):
    import_package()
    if args.setup_only:
        setup_only(args.workload, args.seed, Path(args.setup_only))
        return 0
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        cases = workloads.WORKLOADS[args.workload](args.seed, workdir)
        with SpeedMeter() as meter:
            if not args.trace:
                setups = time_setups(args.workload, args.seed, workdir)
                passes = measure(cases, args.seconds, meter)
                traced = []
            else:
                import tracing

                passes = measure(cases, args.seconds / 2, meter)
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    traced = measure(cases, args.seconds / 2, meter, tracer)
                finally:
                    tracer.restore()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_repeats(passes + traced)
    runs = [r for p in passes + traced for r in p]

    if not args.trace:
        values, extra = end_to_end(passes, setups)
        metrics = {n: {"value": values[n], "unit": u} for n, u, _ in END_TO_END}
    else:
        overhead = (statistics.fmean(walls(traced, "scaled"))
                    - statistics.fmean(walls(passes, "scaled")))
        values = tracer.metrics(len(traced), overhead)
        metrics = {n: {"value": values[n], "unit": u} for n, u, _ in tracing.METRICS}
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans)
        extra = [f"  untraced passes = {len(passes)}, traced passes = {len(traced)}, "
                 f"spans = {len(tracer.spans)} written to {spans.relative_to(ROOT)}"]

    for line in summarize(args, runs, metrics) + extra:
        print(line)
    print("env " + json.dumps(environment(args.workload, args.seed), sort_keys=True))
    print(json.dumps(result(runs, metrics)))
    return 0


def result(runs, metrics):
    """The result object: failures count against attempts, and a wrong
    output, unlike a crash or a stall, makes the run incorrect."""
    return {
        "correct": not any(r.problem for r in runs),
        "attempted": len(runs),
        "failed": sum(r.failed for r in runs),
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
