"""Local worker lifecycle: the processes ``--parallel N`` starts.

Local workers are subprocesses on private socketpairs, each in its own
session.  These tests pin what that buys, with real processes:

* a SIGKILLed coordinator takes its workers with it (they read EOF);
* a Ctrl-C to the terminal's process group reaches only the
  coordinator, which drains; ``--resume`` then completes the run
  byte-identically to a serial one;
* a worker launch that cannot work fails over to serial execution
  instead of respawning in a loop;
* workers start lazily, at the first batch with a cache miss, and a
  ``--parallel`` session opens no listening port.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.engine.scheduler import EngineSession
from repro.engine.units import WorkUnit, register_executor

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

#: small enough to be quick, large enough to be mid-run when interrupted
RUNALL_ARGS = ["runall", "--scale", "0.03", "--threads", "1,2,16"]


def _triple(spec):
    return {"value": spec[0] * 3}


register_executor("t-lw-triple", _triple)


def unit(key, value):
    return WorkUnit(kind="t-lw-triple", key=key, spec=(value,), label=key)


def _env(workdir, sweeps):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_RUNS_DIR"] = str(workdir / "runs")
    env["REPRO_SWEEP_CACHE_DIR"] = str(workdir / sweeps)
    return env


def _repro(args, workdir, sweeps, **kwargs):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args], env=_env(workdir, sweeps),
        cwd=workdir, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, **kwargs)


def _events(path):
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines()
            if line.endswith("}")]


def _wait_for(predicate, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


def _alive(pid):
    """Running, as opposed to exited (a zombie nobody reaped yet is dead)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="reads process state from /proc")
def test_sigkilled_coordinator_leaves_no_local_worker(tmp_path):
    events = tmp_path / "events.jsonl"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "run", "table2", "--scale", "0.03",
         "--parallel", "2", "--event-log", str(events)],
        env=_env(tmp_path, "sweeps"), cwd=tmp_path,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    pids = []
    try:
        assert _wait_for(lambda: len(
            [e for e in _events(events) if e["kind"] == "worker_started"]) == 2), \
            "the run never started its two workers"
        pids = [e["pid"] for e in _events(events)
                if e["kind"] == "worker_started"]
        proc.kill()
        proc.wait(timeout=30)
        assert proc.returncode == -signal.SIGKILL  # killed mid-run
        _wait_for(lambda: not any(_alive(p) for p in pids), timeout=10.0)
        survivors = [p for p in pids if _alive(p)]
        assert not survivors, f"local workers outlived their coordinator: {survivors}"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for pid in pids:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)


def test_sigint_to_the_process_group_drains_then_resumes_identically(tmp_path):
    ctrl = subprocess.run(
        [sys.executable, "-m", "repro", *RUNALL_ARGS, "--parallel", "1",
         "--json", "ctrl"], env=_env(tmp_path, "ctrl-sweeps"), cwd=tmp_path,
        capture_output=True, text=True, timeout=600)
    assert ctrl.returncode in (0, 1), ctrl.stderr  # 1 = comparisons off at tiny scale

    journal = tmp_path / "runs" / "int" / "journal.jsonl"
    proc = _repro([*RUNALL_ARGS, "--parallel", "2", "--run-id", "int"],
                  tmp_path, "sweeps", start_new_session=True)
    try:
        assert _wait_for(lambda: journal.exists()
                         and journal.read_text().count("\n") >= 1), \
            "nothing settled"
        os.killpg(proc.pid, signal.SIGINT)  # what a terminal Ctrl-C sends
        _, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 130, err
    kinds = [e["kind"] for e in _events(tmp_path / "runs" / "int" / "events.jsonl")]
    assert "run_interrupted" in kinds
    assert kinds.count("worker_started") == 2

    resumed = _repro(["runall", "--resume", "int", "--parallel", "2",
                      "--json", "resumed"], tmp_path, "sweeps")
    _, err = resumed.communicate(timeout=600)
    assert resumed.returncode in (0, 1), err
    names = sorted(p.name for p in (tmp_path / "ctrl").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "resumed").iterdir())
    for name in names:
        assert ((tmp_path / "resumed" / name).read_bytes()
                == (tmp_path / "ctrl" / name).read_bytes()), f"{name} diverged"


@pytest.mark.parametrize("executable", [
    "/nonexistent/python",   # cannot exec at all
    shutil.which("false"),   # execs, then exits before its hello
])
def test_broken_worker_launch_falls_back_to_serial(monkeypatch, executable):
    if executable is None:
        pytest.skip("no 'false' binary on this host")
    monkeypatch.setattr(sys, "executable", executable)
    with EngineSession(2) as sess:
        results = sess.run_units([unit(f"k{i}", i) for i in range(4)])
    assert results == {f"k{i}": {"value": 3 * i} for i in range(4)}
    assert sess.events.count("serial_fallback") == 1
    assert sess.events.count("worker_restarted") == 0


def test_workers_start_lazily_and_open_no_port():
    seeded = {"hit": {"value": 0}}
    with EngineSession(2) as sess:
        sess.run_units([unit("hit", 0)], cache_get=lambda u: seeded.get(u.key))
        assert sess.events.count("worker_started") == 0  # all hits: no workers
        results = sess.run_units([unit("miss", 5)])
        assert "executed on 2 worker(s)" in sess.summary()
    assert results == {"miss": {"value": 15}}
    assert sess.events.count("worker_started") == 2
    assert sess.events.count("serial_fallback") == 0
    assert sess.events.count("coordinator_listening") == 0
