"""Importing the CLI and the server must not load scipy.

A warm ``repro runall`` fits nothing and builds no k-d tree, so scipy is
deferred to the functions that use it (``core.fitting``,
``core.optimizer``, ``workloads.hop``).  This runs the import in a fresh
interpreter, where no other test can have loaded scipy already.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = (
    "import repro.cli, repro.serve.server, sys; "
    "print(' '.join(sorted(m for m in sys.modules "
    "if m == 'scipy' or m.startswith('scipy.'))))"
)


def test_cli_and_server_import_without_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert not loaded, f"importing repro.cli loaded scipy modules: {loaded}"
