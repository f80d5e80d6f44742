"""One sha256 over the outputs of every benchmark workload.

Run from the root of a checkout:

    python tests/digest.py

Every case of ``perfbench.workloads.WORKLOADS`` runs once at seeds 1
and 2, in order, through its own ``run`` and ``collect``.  The digest
covers each case's report text, vertex bytes and face bytes, so two
trees whose digests agree gave byte-identical outputs on all of them.
Prints the case count and the digest per workload and overall.  BLAS is
pinned to one thread, as the benchmark pins it.  Not a test module:
pytest does not collect this file.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)


def main():
    from perfbench import run

    os.environ.update(run.THREAD_PINS)  # before numpy loads BLAS
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    total, count = hashlib.sha256(), 0
    for name, make in workloads.WORKLOADS.items():
        digest, cases = hashlib.sha256(), 0
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as workdir:
                for case in make(seed, workdir):
                    with contextlib.redirect_stdout(io.StringIO()):  # forge solve's summary
                        raw = case.run()
                    out = case.collect(raw)
                    for part in (out.report.encode(), out.vertices.tobytes(), out.faces.tobytes()):
                        digest.update(part)
                        total.update(part)
                    cases += 1
        count += cases
        print(f"{name}: {cases} cases, sha256 {digest.hexdigest()}")
    print(f"all: {count} cases, sha256 {total.hexdigest()}")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    main()
