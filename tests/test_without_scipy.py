"""HOP and the reports that use it run without scipy.

``pyproject.toml`` declares only numpy, so a clean install has no scipy.
Each test runs a fresh interpreter whose ``sys.meta_path`` refuses every
``scipy*`` import, then checks the results against this process and
against the report digest ``benchmarks/e2e/expected.json`` records.
"""

import hashlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.workloads import default_workloads

ROOT = Path(__file__).resolve().parents[1]

BLOCK_SCIPY = """\
import sys

class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

sys.meta_path.insert(0, _NoScipy())
try:
    import scipy  # noqa: F401
except ModuleNotFoundError:
    pass
else:
    raise SystemExit("scipy was not blocked")
"""

HOP_SCALE = 0.03
THREADS = (1, 4, 16)

RUN_HOP = BLOCK_SCIPY + f"""
import pickle
from repro.workloads import default_workloads
wl = default_workloads({HOP_SCALE})["hop"]
with open(sys.argv[1], "wb") as f:
    pickle.dump([wl.execute(p) for p in {THREADS}], f)
"""

RUN_CLI = BLOCK_SCIPY + """
import runpy
sys.argv = ["repro", *sys.argv[1:]]
runpy.run_module("repro", run_name="__main__", alter_sys=True)
"""


def _run_blocked(code: str, args, tmp_path: Path) -> subprocess.CompletedProcess:
    """Run ``code`` in a scipy-less interpreter with every cache in ``tmp_path``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    (tmp_path / "tmp").mkdir()
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "REPRO_SWEEP_CACHE_DIR": str(tmp_path / "sweeps"),
        "REPRO_RUNS_DIR": str(tmp_path / "runs"),
        "TMPDIR": str(tmp_path / "tmp"),
    })
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=600)


def test_hop_execute_without_scipy_matches_in_process(tmp_path):
    out = tmp_path / "executions.pkl"
    proc = _run_blocked(RUN_HOP, [out], tmp_path)
    assert proc.returncode == 0, proc.stderr
    blocked = pickle.loads(out.read_bytes())
    wl = default_workloads(HOP_SCALE)["hop"]
    for p, got in zip(THREADS, blocked):
        want = wl.execute(p)
        assert got.phases == want.phases
        assert sorted(got.outputs) == sorted(want.outputs)
        for key, value in want.outputs.items():
            np.testing.assert_array_equal(got.outputs[key], value)


def test_table2_report_without_scipy_matches_recorded_digest(tmp_path):
    expected = json.loads((ROOT / "benchmarks/e2e/expected.json").read_text())
    out = tmp_path / "reports"
    proc = _run_blocked(RUN_CLI, ["run", "table2", "--scale", "0.03",
                                  "--threads", "1,2", "--json", out], tmp_path)
    # ``run`` exits 1 when a paper comparison cannot hold at this tiny
    # scale; the report bytes are what is checked
    assert proc.returncode in (0, 1), proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    digest = hashlib.sha256((out / "table2.json").read_bytes()).hexdigest()
    assert digest == expected["runall-smoke"]["table2"]
