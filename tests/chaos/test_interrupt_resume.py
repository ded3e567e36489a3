"""The headline crash-safety property, end to end through the CLI:

a run SIGKILLed at a chaos-chosen settle point, resumed with
``--resume``, produces **byte-identical** report JSON to an
uninterrupted run — even when every sweep-cache write of the first
attempt is wiped, and even when the journal's tail was torn by the
crash.

Each scenario is a real CLI subprocess (the kill is a real ``SIGKILL``
delivered right after a journal append by ``tests/chaos/kill_at_settle.py``),
isolated via ``REPRO_RUNS_DIR`` / ``REPRO_SWEEP_CACHE_DIR``.  All chaos
decisions come from a fixed seed.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from tests.chaos.injectors import Chaos, truncate_tail

REPO_SRC = Path(__file__).resolve().parents[2] / "src"
#: runs the CLI and SIGKILLs it after the N-th journal settle
KILL_AT_SETTLE = Path(__file__).resolve().parent / "kill_at_settle.py"

#: table2 at this scale/threads declares 6 sweep units (3 workloads x 2)
TABLE2_ARGS = ["run", "table2", "--scale", "0.03", "--threads", "1,2"]
N_UNITS = 6

SEED = 2026
KILL_AT = Chaos(seed=SEED).settle_point(N_UNITS)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("chaos-cli")


def cli_argv(args, kill_at=None):
    """The command line of a CLI run, SIGKILLed at settle ``kill_at``."""
    if kill_at is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, str(KILL_AT_SETTLE), str(kill_at), *args]


def run_cli(args, workdir, *, kill_at=None, sweeps="sweeps"):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_RUNS_DIR"] = str(workdir / "runs")
    env["REPRO_SWEEP_CACHE_DIR"] = str(workdir / sweeps)
    return subprocess.run(
        cli_argv(args, kill_at),
        capture_output=True, text=True, env=env, cwd=workdir, timeout=300,
    )


@pytest.fixture(scope="module")
def control_report(workdir):
    """The uninterrupted run's table2 report (its own sweep cache)."""
    proc = run_cli([*TABLE2_ARGS, "--json", "ctrl"], workdir, sweeps="ctrl-sweeps")
    assert proc.returncode in (0, 1), proc.stderr  # 1 = comparisons off at tiny scale
    return (workdir / "ctrl" / "table2.json").read_bytes()


class TestSigkillThenResume:
    @pytest.fixture(scope="class")
    def killed(self, workdir):
        """One run SIGKILLed mid-append at the chaos-chosen settle."""
        proc = run_cli([*TABLE2_ARGS, "--run-id", "int1"], workdir,
                       kill_at=KILL_AT)
        return proc

    def test_kill_was_delivered(self, killed):
        assert killed.returncode == -signal.SIGKILL

    def test_journal_holds_exactly_the_settled_prefix(self, workdir, killed):
        lines = (workdir / "runs" / "int1" / "journal.jsonl").read_text().splitlines()
        # header + one record per settle up to (and including) the fatal one
        assert len(lines) == KILL_AT + 1
        assert "h" in json.loads(lines[0])

    def test_manifest_written_before_the_crash(self, workdir, killed):
        manifest = json.loads(
            (workdir / "runs" / "int1" / "manifest.json").read_text())
        assert manifest["experiment"] == "table2"
        assert manifest["options"]["scale"] == 0.03
        assert manifest["options"]["thread_counts"] == [1, 2]

    def test_resume_is_byte_identical(self, workdir, killed, control_report):
        # wipe the sweep store: resume must stand on the journal alone
        shutil.rmtree(workdir / "sweeps", ignore_errors=True)
        proc = run_cli(["run", "--resume", "int1", "--json", "res1"], workdir)
        assert proc.returncode in (0, 1), proc.stderr
        resumed = (workdir / "res1" / "table2.json").read_bytes()
        assert resumed == control_report
        # and the journal genuinely supplied the settled prefix
        events = [json.loads(l) for l in
                  (workdir / "runs" / "int1" / "events.jsonl").open()]
        hits = sum(1 for e in events if e["kind"] == "journal_hit")
        assert hits >= KILL_AT


class TestTornJournalResume:
    def test_resume_after_tail_corruption_still_byte_identical(
            self, workdir, control_report):
        proc = run_cli([*TABLE2_ARGS, "--run-id", "int2"], workdir,
                       kill_at=KILL_AT, sweeps="sweeps2")
        assert proc.returncode == -signal.SIGKILL
        journal = workdir / "runs" / "int2" / "journal.jsonl"
        truncate_tail(journal, nbytes=7)  # tear the last record mid-line
        shutil.rmtree(workdir / "sweeps2", ignore_errors=True)
        proc = run_cli(["run", "--resume", "int2", "--json", "res2"], workdir,
                       sweeps="sweeps2")
        assert proc.returncode in (0, 1), proc.stderr
        resumed = (workdir / "res2" / "table2.json").read_bytes()
        assert resumed == control_report


class TestResumeNoop:
    def test_table2_resume_reproduces_the_completed_run(self, workdir):
        """--resume of a *finished* table2 run replays its sweep from the
        journal and must reproduce the same bytes."""
        first = run_cli([*TABLE2_ARGS, "--run-id", "t1", "--json", "out-t1"],
                        workdir, sweeps="sweeps-t1")
        assert first.returncode in (0, 1), first.stderr
        shutil.rmtree(workdir / "sweeps-t1")  # the journal alone answers
        again = run_cli(["run", "--resume", "t1", "--json", "out-t2"], workdir,
                        sweeps="sweeps-t1")
        assert again.returncode == first.returncode, again.stderr
        assert ((workdir / "out-t1" / "table2.json").read_bytes()
                == (workdir / "out-t2" / "table2.json").read_bytes())
        events = [json.loads(l) for l in
                  (workdir / "runs" / "t1" / "events.jsonl").open()]
        assert sum(1 for e in events if e["kind"] == "journal_hit") >= N_UNITS

    def test_fig4_resume_reproduces_the_completed_run(self, workdir):
        """fig4 declares no units, so its journal holds no settle; --resume
        of the finished run reassembles it and must reproduce the bytes."""
        first = run_cli(["run", "fig4", "--run-id", "f1", "--json", "out-a"],
                        workdir)
        assert first.returncode in (0, 1), first.stderr
        again = run_cli(["run", "--resume", "f1", "--json", "out-b"], workdir)
        assert again.returncode == first.returncode, again.stderr
        assert ((workdir / "out-a" / "fig4.json").read_bytes()
                == (workdir / "out-b" / "fig4.json").read_bytes())

    def test_resume_unknown_run_errors_with_hint(self, workdir):
        """Resuming a run that does not exist under the resolved runs root
        must refuse loudly (it used to silently open a fresh journal)."""
        proc = run_cli(["run", "--resume", "never-ran"], workdir)
        assert proc.returncode == 2
        assert "no run directory" in proc.stderr
        assert "REPRO_RUNS_DIR" in proc.stderr  # the how-to-fix-it hint

    def test_manifest_records_the_absolute_runs_root(self, workdir):
        manifest = json.loads(
            (workdir / "runs" / "f1" / "manifest.json").read_text())
        assert Path(manifest["runs_root"]).is_absolute()
        assert Path(manifest["runs_root"]) == (workdir / "runs").resolve()
