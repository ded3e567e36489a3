"""Distributed execution under chaos, end to end through the CLI.

The acceptance property for the remote backend: a table2 run executed on
two ``repro worker`` processes over localhost sockets is **byte-identical**
to the serial run — and stays byte-identical when a worker is SIGKILLed
mid-run *and* the coordinator itself is SIGKILLed mid-run and resumed
with ``--resume``.

Every process here is a real CLI subprocess (the coordinator that must
die runs under ``tests/chaos/kill_at_settle.py``), isolated
via ``REPRO_RUNS_DIR`` / ``REPRO_SWEEP_CACHE_DIR``.  Each scenario gets
its own sweep-cache directory: a shared cache would satisfy every unit
locally and nothing would ever reach a worker, making the distribution
assertions vacuous — which is why the tests also assert, from the event
log, that remote workers really executed units.
"""

import json
import os
import signal
import socket
import subprocess
import time
from pathlib import Path

import pytest

from tests.chaos.test_interrupt_resume import cli_argv

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

#: table2 at this scale/threads declares 6 sweep units (3 workloads x 2)
TABLE2_ARGS = ["run", "table2", "--scale", "0.03", "--threads", "1,2"]
KILL_AT = 3  # strictly inside the 6-unit run


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _env(workdir, sweeps):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_RUNS_DIR"] = str(workdir / "runs")
    env["REPRO_SWEEP_CACHE_DIR"] = str(workdir / sweeps)
    return env


def _spawn(args, workdir, sweeps, *, kill_at=None):
    return subprocess.Popen(
        cli_argv(args, kill_at),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=_env(workdir, sweeps), cwd=workdir,
    )


def _spawn_worker(port, workdir, sweeps, name, retry_for=120.0):
    return _spawn(["worker", "--connect", f"127.0.0.1:{port}",
                   "--name", name, "--retry-for", str(retry_for)],
                  workdir, sweeps)


def _reap(*procs):
    for p in procs:
        if p.poll() is None:
            p.terminate()
    for p in procs:
        try:
            p.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            p.kill()
            p.communicate()


def _events(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


def _remote_workers(events):
    return {e["worker"] for e in events
            if e["kind"] == "unit_done" and "worker" in e}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("remote-chaos")


@pytest.fixture(scope="module")
def control_report(workdir):
    """The serial, uninterrupted run's table2 report bytes."""
    proc = _spawn([*TABLE2_ARGS, "--json", "ctrl"], workdir, "ctrl-sweeps")
    out, err = proc.communicate(timeout=300)
    assert proc.returncode in (0, 1), err  # 1 = comparisons off at tiny scale
    return (workdir / "ctrl" / "table2.json").read_bytes()


class TestDistributedByteIdentity:
    def test_two_workers_reproduce_the_serial_report(self, workdir,
                                                     control_report):
        port = _free_port()
        coordinator = _spawn(
            [*TABLE2_ARGS, "--json", "dist", "--listen", f"127.0.0.1:{port}",
             "--worker-timeout", "120", "--event-log", "events-dist.jsonl"],
            workdir, "dist-sweeps")
        workers = [_spawn_worker(port, workdir, "dist-sweeps", f"w{i}")
                   for i in (1, 2)]
        try:
            out, err = coordinator.communicate(timeout=300)
            assert coordinator.returncode in (0, 1), err
        finally:
            _reap(coordinator, *workers)
        assert (workdir / "dist" / "table2.json").read_bytes() == control_report
        # the identity must not be vacuous: remote workers did the work
        # (a serial_fallback here would mean nothing was distributed)
        done_by = _remote_workers(_events(workdir / "events-dist.jsonl"))
        assert done_by, "no unit was executed by a remote worker"
        assert done_by <= {"w1", "w2"}


class TestChaosUnderDistribution:
    def test_worker_and_coordinator_sigkill_then_resume(self, workdir,
                                                        control_report):
        """SIGKILL one worker mid-run, let the coordinator die by chaos
        SIGKILL at the third journal settle, resume on the same port with
        the surviving worker — the report must still be byte-identical."""
        port = _free_port()
        journal = workdir / "runs" / "dist2" / "journal.jsonl"
        coordinator = _spawn(
            [*TABLE2_ARGS, "--run-id", "dist2", "--listen",
             f"127.0.0.1:{port}", "--worker-timeout", "120"],
            workdir, "dist2-sweeps", kill_at=KILL_AT)
        w1 = _spawn_worker(port, workdir, "dist2-sweeps", "w1")
        w2 = _spawn_worker(port, workdir, "dist2-sweeps", "w2")
        resumed = None
        try:
            # SIGKILL w1 as soon as the first unit settles (w1 may well be
            # holding a lease); its work must be re-issued to w2
            deadline = time.monotonic() + 240
            while time.monotonic() < deadline:
                if journal.exists() and len(journal.read_text().splitlines()) > 1:
                    break
                if coordinator.poll() is not None:
                    break
                time.sleep(0.05)
            if w1.poll() is None:
                w1.send_signal(signal.SIGKILL)
            out, err = coordinator.communicate(timeout=300)
            assert coordinator.returncode == -signal.SIGKILL, err
            # the journal holds exactly the settled prefix, durably
            lines = journal.read_text().splitlines()
            assert len(lines) == KILL_AT + 1  # header + one per settle

            resumed = _spawn(
                ["run", "--resume", "dist2", "--json", "res", "--listen",
                 f"127.0.0.1:{port}", "--worker-timeout", "120",
                 "--event-log", "events-res.jsonl"],
                workdir, "dist2-sweeps")
            out, err = resumed.communicate(timeout=300)
            assert resumed.returncode in (0, 1), err
        finally:
            _reap(coordinator, w1, w2, *([resumed] if resumed else []))
        assert (workdir / "res" / "table2.json").read_bytes() == control_report
        events = _events(workdir / "events-res.jsonl")
        # the resume replayed the journaled prefix instead of re-running it
        assert sum(1 for e in events if e["kind"] == "journal_hit") >= KILL_AT
        # and the remainder genuinely ran on the surviving remote worker
        assert _remote_workers(events) == {"w2"}
