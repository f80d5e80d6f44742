"""The installed package is the pipeline: every module in it is loaded by
the command line, so none serves only the tests."""

import subprocess
import sys
from pathlib import Path

import polyforge

# Ready-made developments for users and tests; the solve path never needs them.
NOT_ON_THE_PIPELINE = {"catalog"}


def test_cli_loads_every_module():
    package = Path(polyforge.__file__).parent
    modules = {p.stem for p in package.glob("*.py") if p.stem != "__init__"}
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
        cwd=package.parent,
    )
    loaded = set(proc.stdout.split())
    assert loaded == modules - NOT_ON_THE_PIPELINE
