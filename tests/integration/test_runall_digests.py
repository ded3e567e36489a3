"""Every ``runall`` report byte, checked against the recorded digests.

``benchmarks/e2e/expected.json["runall"]`` records the sha256 of each
report a default ``repro runall --json`` writes (its only writer is
``benchmarks/e2e/record_expected.py``).  This test runs ``runall
--parallel 1 --json`` in a fresh interpreter on empty cache tiers and
demands every report's digest, naming each report that is missing,
unexpected or different.  It reads ``expected.json`` and never writes it.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def test_every_runall_report_matches_its_recorded_digest(tmp_path):
    expected = json.loads((ROOT / "benchmarks/e2e/expected.json").read_text())["runall"]
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    (tmp_path / "tmp").mkdir()
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "REPRO_SWEEP_CACHE_DIR": str(tmp_path / "sweeps"),
        "REPRO_RUNS_DIR": str(tmp_path / "runs"),
        "TMPDIR": str(tmp_path / "tmp"),
    })
    out = tmp_path / "reports"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "runall", "--parallel", "1", "--json", str(out)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    got = {p.stem: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.glob("*.json"))}
    problems = [
        f"{eid}: " + ("report missing" if eid not in got
                      else "not in expected.json" if eid not in expected
                      else f"sha256 {got[eid][:12]} != expected {expected[eid][:12]}")
        for eid in sorted(set(expected) | set(got))
        if got.get(eid) != expected.get(eid)
    ]
    assert not problems, "runall reports differ:\n" + "\n".join(problems)
