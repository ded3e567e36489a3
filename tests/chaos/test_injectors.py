"""The injectors themselves: seeded, reproducible, correctly scoped."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine.journal import RunJournal
from repro.experiments.store import SweepStore
from tests.chaos import kill_at_settle
from tests.chaos.injectors import (
    Chaos,
    FlakyStore,
    corrupt_file,
    corrupt_store_entry,
    truncate_tail,
)

CHAOS_DIR = Path(__file__).resolve().parent
REPO_SRC = CHAOS_DIR.parents[1] / "src"


class TestChaosDeterminism:
    def test_same_seed_same_decisions(self):
        a, b = Chaos(seed=7), Chaos(seed=7)
        assert [a.settle_point(20) for _ in range(5)] == [
            b.settle_point(20) for _ in range(5)
        ]
        assert a.indices(10, 3) == b.indices(10, 3)
        assert a.pick("abcdef") == b.pick("abcdef")

    def test_different_seeds_diverge(self):
        points_a = [Chaos(seed=1).settle_point(1000) for _ in range(3)]
        points_b = [Chaos(seed=2).settle_point(1000) for _ in range(3)]
        assert points_a != points_b

    def test_settle_point_strictly_inside_run(self):
        chaos = Chaos(seed=3)
        for n in (2, 5, 50):
            for _ in range(20):
                assert 1 <= chaos.settle_point(n) < n
        assert chaos.settle_point(1) == 1


class TestFileCorruption:
    def test_truncate_cuts_interior(self, tmp_path):
        p = tmp_path / "f"
        p.write_bytes(b"x" * 100)
        corrupt_file(p, mode="truncate", seed=0)
        assert 0 < len(p.read_bytes()) < 100

    def test_garbage_keeps_length(self, tmp_path):
        p = tmp_path / "f"
        p.write_bytes(b"x" * 100)
        corrupt_file(p, mode="garbage", seed=0)
        data = p.read_bytes()
        assert len(data) == 100 and data != b"x" * 100

    def test_empty_mode(self, tmp_path):
        p = tmp_path / "f"
        p.write_bytes(b"x" * 100)
        corrupt_file(p, mode="empty")
        assert p.read_bytes() == b""

    def test_unknown_mode_rejected(self, tmp_path):
        p = tmp_path / "f"
        p.write_bytes(b"x")
        with pytest.raises(ValueError):
            corrupt_file(p, mode="set-on-fire")

    def test_corruption_is_seeded(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.write_bytes(b"x" * 100)
        b.write_bytes(b"x" * 100)
        corrupt_file(a, mode="garbage", seed=5)
        corrupt_file(b, mode="garbage", seed=5)
        assert a.read_bytes() == b.read_bytes()

    def test_truncate_tail(self, tmp_path):
        p = tmp_path / "f"
        p.write_bytes(b"0123456789")
        truncate_tail(p, nbytes=4)
        assert p.read_bytes() == b"012345"

    def test_corrupt_store_entry_makes_a_miss(self, tmp_path):
        store = SweepStore(tmp_path)
        store.put("deadbeef", {"value": 1})
        assert store.get("deadbeef") == {"value": 1}
        corrupt_store_entry(store, "deadbeef", mode="garbage", seed=0)
        assert store.get("deadbeef") is None  # corrupt reads as a miss


class TestFlakyStore:
    def test_drops_chosen_puts(self, tmp_path):
        flaky = FlakyStore(SweepStore(tmp_path), fail_puts={1})
        assert flaky.put("k0", {"v": 0}) is not None
        assert flaky.put("k1", {"v": 1}) is None  # dropped
        assert flaky.put("k2", {"v": 2}) is not None
        assert flaky.puts == 3 and flaky.dropped == 1
        assert flaky.get("k0") == {"v": 0}
        assert flaky.get("k1") is None

    def test_fail_all(self, tmp_path):
        flaky = FlakyStore(SweepStore(tmp_path), fail_all=True)
        for i in range(4):
            assert flaky.put(f"k{i}", {"v": i}) is None
        assert flaky.dropped == 4
        assert len(flaky) == 0

    def test_reads_and_keys_delegate(self, tmp_path):
        inner = SweepStore(tmp_path)
        flaky = FlakyStore(inner)
        desc = {"a": 1}
        assert flaky.key_for(desc) == inner.key_for(desc)
        assert flaky.path_for("k") == inner.path_for("k")
        assert flaky.root == inner.root


class TestKillAtSettle:
    """``tests/chaos/kill_at_settle.py``: SIGKILL after the N-th settle."""

    def test_noop_below_threshold_or_garbage(self, tmp_path, monkeypatch):
        monkeypatch.setattr(RunJournal, "record", RunJournal.record)  # undo arm
        with pytest.raises(ValueError):
            kill_at_settle.arm(0)
        with pytest.raises(ValueError):
            kill_at_settle.main(["not-a-number", "list"])
        kill_at_settle.arm(5)
        with RunJournal(tmp_path / "journal.jsonl") as journal:
            for i in range(4):
                assert journal.record(f"k{i}", {"v": i})
            assert not journal.record("k0", {"v": 0})  # not newly journaled
            assert len(journal) == 4  # still alive: 4 settles < 5

    @pytest.fixture(scope="class")
    def killed(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("kill-at-settle") / "journal.jsonl"
        code = (
            "import sys\n"
            "from kill_at_settle import arm\n"
            "from repro.engine.journal import RunJournal\n"
            "arm(3)\n"
            "journal = RunJournal(sys.argv[1])\n"
            "for i in range(5):\n"
            "    journal.record(f'k{i}', {'v': i})\n"
            "print('survived')\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_SRC), str(CHAOS_DIR), env.get("PYTHONPATH", "")])
        proc = subprocess.run([sys.executable, "-c", code, str(path)],
                              capture_output=True, env=env, timeout=120)
        return proc, path

    def test_kills_process_at_threshold(self, killed):
        proc, _ = killed
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        assert b"survived" not in proc.stdout

    def test_journal_holds_exactly_the_fatal_prefix(self, killed):
        _, path = killed
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 3  # header + the three settled records
        assert sorted(RunJournal(path).keys()) == ["k0", "k1", "k2"]
