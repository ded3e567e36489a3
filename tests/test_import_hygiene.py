"""Importing the CLI and the server, and a cold ``runall``, load no scipy.

Nothing ``runall`` reaches needs scipy: HOP's neighbour search is numpy
(``workloads.neighbors``), and the only scipy users left,
``core.fitting.fit_serial_growth`` and
``core.optimizer.best_symmetric_continuous``, import it lazily and are
not called.  Each check runs in a fresh interpreter, where no other test
can have loaded scipy already.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parents[1] / "src"

LIST_SCIPY = (
    "print('scipy modules:', *sorted(m for m in sys.modules "
    "if m == 'scipy' or m.startswith('scipy.')))"
)

PROBE = "import repro.cli, repro.serve.server, sys; " + LIST_SCIPY

COLD_RUNALL = (
    "import sys; from repro.cli import main; "
    "code = main(['runall', '--parallel', '1', '--json', sys.argv[1]]); "
    + LIST_SCIPY + "; sys.exit(code)"
)


def _loaded_scipy(code: str, args=(), env=None, cwd=None, timeout=120):
    """The scipy modules loaded once ``code`` has run in a fresh interpreter."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1].split()
    assert last[:2] == ["scipy", "modules:"], proc.stdout[-2000:]
    return last[2:]


def test_cli_and_server_import_without_scipy():
    loaded = _loaded_scipy(PROBE)
    assert not loaded, f"importing repro.cli loaded scipy modules: {loaded}"


def test_cold_runall_loads_no_scipy(tmp_path):
    (tmp_path / "tmp").mkdir()
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({
        "REPRO_SWEEP_CACHE_DIR": str(tmp_path / "sweeps"),
        "REPRO_RUNS_DIR": str(tmp_path / "runs"),
        "TMPDIR": str(tmp_path / "tmp"),
    })
    loaded = _loaded_scipy(COLD_RUNALL, [str(tmp_path / "reports")], env,
                           cwd=tmp_path, timeout=600)
    assert not loaded, f"a cold runall loaded {len(loaded)} scipy modules: {loaded[:5]}"
