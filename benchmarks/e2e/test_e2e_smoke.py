"""Smoke test for the end-to-end benchmark (``run.py --smoke``).

Runs every workload at smoke size untraced, then the traced pass, and
asserts that each metric ``BENCHMARK.json`` names is reported with its
unit and that every output check passes; then corrupts one recorded
report digest and asserts the run fails.  About 45 s on two CPUs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> "tuple[int, dict | None]":
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except ValueError:
        last = None
    return proc.returncode, last


def _assert_reported(record_path: Path, section: str) -> None:
    record = json.loads(record_path.read_text())
    for wl, result in record["workloads"].items():
        for m in SPEC[section]:
            got = result["metrics"].get(m["name"])
            assert got is not None, f"{wl}: {m['name']} missing"
            assert got["unit"] == m["unit"], f"{wl}: {m['name']} unit {got['unit']}"
        assert result["failed"] == 0, result.get("failures")


def test_untraced_workloads_report_every_end_to_end_metric(tmp_path):
    out = tmp_path / "record.json"
    code, last = _run("--out", str(out))
    assert code == 0 and last is not None and last["correct"], last
    assert last["attempted"] > 0 and last["failed"] == 0
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert set(json.loads(out.read_text())["workloads"]) == workloads
    _assert_reported(out, "end_to_end")


def test_traced_pass_reports_every_per_layer_metric(tmp_path):
    out = tmp_path / "trace-record.json"
    trace = tmp_path / "trace.json"
    code, last = _run("--trace", "--out", str(out), "--trace-out", str(trace))
    assert code == 0 and last is not None and last["correct"], last
    _assert_reported(out, "per_layer")
    events = json.loads(trace.read_text())["traceEvents"]
    assert any(e.get("ph") == "X" and e["name"] == "simx.run" for e in events)


def test_corrupted_expected_digest_fails_the_run(tmp_path):
    expected = json.loads((HERE / "expected.json").read_text())
    digests = expected["runall-smoke"]
    eid = sorted(digests)[0]
    digests[eid] = "0" * 64
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(expected))
    code, last = _run("--workload", "runall-cold", "--expected", str(corrupted))
    assert code == 1
    assert last is not None and last["correct"] is False and last["failed"] > 0
