"""Crash-safety beyond the classic sweeps: a *pipeline-declared*
experiment (ablation-machine — five machine-model variants, each a
config-bearing sweep unit built via the spec's declare stage) SIGKILLed
at a chaos-chosen settle point and resumed with ``--resume`` reproduces
the uninterrupted report byte-for-byte, standing on the journal alone.
"""

import json
import shutil
import signal

import pytest

from tests.chaos.injectors import Chaos
from tests.chaos.test_interrupt_resume import run_cli

#: ablation-machine at this scale/threads declares 10 units
#: (5 machine-config variants x 2 thread counts)
MACHINE_ARGS = ["run", "ablation-machine", "--scale", "0.03",
                "--threads", "1,2"]
N_UNITS = 10

SEED = 2027
KILL_AT = Chaos(seed=SEED).settle_point(N_UNITS)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("chaos-pipeline")


@pytest.fixture(scope="module")
def control_report(workdir):
    """The uninterrupted run's report (its own sweep cache)."""
    proc = run_cli([*MACHINE_ARGS, "--json", "ctrl"], workdir,
                   sweeps="ctrl-sweeps")
    assert proc.returncode in (0, 1), proc.stderr
    return (workdir / "ctrl" / "ablation-machine.json").read_bytes()


class TestPipelineSigkillThenResume:
    @pytest.fixture(scope="class")
    def killed(self, workdir):
        proc = run_cli([*MACHINE_ARGS, "--run-id", "pm1"], workdir,
                       kill_at=KILL_AT)
        return proc

    def test_kill_was_delivered(self, killed):
        assert killed.returncode == -signal.SIGKILL

    def test_journal_holds_exactly_the_settled_prefix(self, workdir, killed):
        lines = (workdir / "runs" / "pm1" / "journal.jsonl").read_text().splitlines()
        assert len(lines) == KILL_AT + 1  # header + settled records

    def test_resume_is_byte_identical(self, workdir, killed, control_report):
        # wipe the sweep store: resume must stand on the journal alone
        shutil.rmtree(workdir / "sweeps", ignore_errors=True)
        proc = run_cli(["run", "--resume", "pm1", "--json", "res"], workdir)
        assert proc.returncode in (0, 1), proc.stderr
        resumed = (workdir / "res" / "ablation-machine.json").read_bytes()
        assert resumed == control_report
        events = [json.loads(l) for l in
                  (workdir / "runs" / "pm1" / "events.jsonl").open()]
        hits = sum(1 for e in events if e["kind"] == "journal_hit")
        assert hits >= KILL_AT
