"""Run-journal behaviour: durable appends, tolerant replay, resume tier."""

import json

import pytest

from repro.engine.journal import (
    RunJournal,
    read_manifest,
    resolve_run_dir,
    run_path,
    validate_run_id,
    write_manifest,
)
from repro.engine.pool import RunInterrupted
from repro.engine.scheduler import EngineSession
from repro.engine.units import WorkUnit, register_executor


def _double(spec):
    return {"value": spec[0] * 2}


register_executor("j-double", _double)


def unit(key, *spec):
    return WorkUnit(kind="j-double", key=key, spec=spec, label=key)


class TestRoundtrip:
    def test_record_then_reopen_replays(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RunJournal(path, run_id="r1") as j:
            assert j.record("k1", {"value": 1})
            assert j.record("k2", {"value": 2})
        replayed = RunJournal(path)
        assert len(replayed) == 2
        assert replayed.get("k1") == {"value": 1}
        assert replayed.get("k2") == {"value": 2}
        assert replayed.run_id == "r1"  # recovered from the header
        assert not replayed.tail_truncated and replayed.dropped == 0

    def test_record_is_idempotent_per_key(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RunJournal(path) as j:
            assert j.record("k", {"value": 1})
            assert not j.record("k", {"value": 1})
        # header + exactly one record
        assert len(path.read_text().splitlines()) == 2

    def test_contains_and_keys(self, tmp_path):
        with RunJournal(tmp_path / "j.jsonl") as j:
            j.record("a", {"value": 0})
            assert "a" in j and "b" not in j
            assert list(j.keys()) == ["a"]


class TestTolerantReplay:
    def test_truncated_tail_is_dropped_silently(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RunJournal(path) as j:
            j.record("k1", {"value": 1})
            j.record("k2", {"value": 2})
        # cut mid-way through the last record, like a killed writer
        data = path.read_bytes()
        path.write_bytes(data[:-9])
        replayed = RunJournal(path)
        assert replayed.get("k1") == {"value": 1}
        assert "k2" not in replayed
        assert replayed.tail_truncated
        assert replayed.dropped == 0  # a torn tail is expected, not corrupt

    def test_corrupt_interior_line_is_skipped_and_counted(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RunJournal(path) as j:
            j.record("k1", {"value": 1})
            j.record("k2", {"value": 2})
        lines = path.read_text().splitlines()
        lines[1] = "{this is not json"
        path.write_text("\n".join(lines) + "\n")
        replayed = RunJournal(path)
        assert "k1" not in replayed
        assert replayed.get("k2") == {"value": 2}
        assert replayed.dropped == 1

    def test_checksum_mismatch_reads_as_corrupt(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RunJournal(path) as j:
            j.record("k1", {"value": 1})
            j.record("k2", {"value": 2})
        lines = path.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["payload"]["value"] = 999  # silently flip the payload
        lines[1] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        replayed = RunJournal(path)
        assert "k1" not in replayed  # checksum no longer matches
        assert replayed.dropped == 1

    def test_empty_and_missing_files(self, tmp_path):
        assert len(RunJournal(tmp_path / "missing.jsonl")) == 0
        empty = tmp_path / "empty.jsonl"
        empty.write_bytes(b"")
        assert len(RunJournal(empty)) == 0

    def test_resumed_journal_appends_after_torn_tail(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RunJournal(path) as j:
            j.record("k1", {"value": 1})
            j.record("k2", {"value": 2})
        data = path.read_bytes()
        path.write_bytes(data[:-5])  # torn tail
        with RunJournal(path) as j2:
            assert j2.tail_truncated
            assert j2.record("k2", {"value": 2})  # re-settle the torn unit
        final = RunJournal(path)
        assert final.get("k1") == {"value": 1}
        assert final.get("k2") == {"value": 2}

    def test_broken_write_reports_once_and_disables(self, tmp_path):
        errors = []
        j = RunJournal(tmp_path / "no" / "j.jsonl", on_error=errors.append)
        (tmp_path / "no").mkdir()
        (tmp_path / "no" / "j.jsonl").mkdir()  # a directory: open() fails
        assert not j.record("k", {"value": 1})
        assert j.broken
        assert len(errors) == 1
        assert not j.record("k2", {"value": 2})  # stays silent after breaking
        assert len(errors) == 1


class TestRunDirectories:
    def test_validate_run_id(self):
        assert validate_run_id("nightly-01") == "nightly-01"
        for bad in ("", "../escape", "a/b", ".hidden", "x" * 200):
            with pytest.raises(ValueError):
                validate_run_id(bad)

    def test_run_path_creates_under_root(self, tmp_path):
        p = run_path("r1", root=tmp_path, create=True)
        assert p.is_dir() and p == tmp_path / "r1"

    def test_manifest_roundtrip(self, tmp_path):
        manifest = {"experiment": "table2", "options": {"scale": 0.03}}
        write_manifest(tmp_path, manifest)
        assert read_manifest(tmp_path) == manifest
        assert not list(tmp_path.glob("*.tmp"))

    def test_manifest_missing_or_corrupt_reads_none(self, tmp_path):
        assert read_manifest(tmp_path / "nowhere") is None
        (tmp_path / "manifest.json").write_text("{broken")
        assert read_manifest(tmp_path) is None

    def test_resolve_run_dir_finds_a_run_with_a_manifest(self, tmp_path):
        rd = run_path("r1", root=tmp_path, create=True)
        write_manifest(rd, {"experiment": "table2"})
        assert resolve_run_dir("r1", root=tmp_path) == rd

    def test_resolve_run_dir_accepts_a_journal_only_run(self, tmp_path):
        rd = run_path("r2", root=tmp_path, create=True)
        with RunJournal(rd / "journal.jsonl", run_id="r2") as j:
            j.record("k", {"value": 1})
        assert resolve_run_dir("r2", root=tmp_path) == rd

    def test_resolve_run_dir_refuses_missing_runs_with_a_hint(self, tmp_path):
        with pytest.raises(FileNotFoundError) as err:
            resolve_run_dir("never-ran", root=tmp_path)
        message = str(err.value)
        assert "never-ran" in message
        assert "REPRO_RUNS_DIR" in message  # points at the CWD trap

    def test_resolve_run_dir_refuses_an_empty_directory(self, tmp_path):
        # a bare directory (no manifest, no journal) is not a resumable
        # run — treating it as one would silently re-execute everything
        run_path("hollow", root=tmp_path, create=True)
        with pytest.raises(FileNotFoundError):
            resolve_run_dir("hollow", root=tmp_path)


class TestSessionIntegration:
    def test_settled_units_are_journaled(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl", run_id="r")
        with EngineSession(1, journal=journal) as sess:
            results = sess.run_units([unit("a", 1), unit("b", 2)])
        assert results == {"a": {"value": 2}, "b": {"value": 4}}
        replayed = RunJournal(tmp_path / "j.jsonl")
        assert replayed.get("a") == {"value": 2}
        assert replayed.get("b") == {"value": 4}

    def test_second_session_replays_without_executing(self, tmp_path):
        with EngineSession(1, journal=RunJournal(tmp_path / "j.jsonl")) as s1:
            s1.run_units([unit("a", 1), unit("b", 2)])
        with EngineSession(1, journal=RunJournal(tmp_path / "j.jsonl")) as s2:
            results = s2.run_units([unit("a", 1), unit("b", 2)])
        assert results == {"a": {"value": 2}, "b": {"value": 4}}
        assert s2.stats["journal_hits"] == 2
        assert s2.stats["executed"] == 0
        assert s2.events.count("journal_hit") == 2

    def test_journal_hits_backfill_cache(self, tmp_path):
        with EngineSession(1, journal=RunJournal(tmp_path / "j.jsonl")) as s1:
            s1.run_units([unit("a", 1)])
        written = {}
        with EngineSession(1, journal=RunJournal(tmp_path / "j.jsonl")) as s2:
            s2.run_units([unit("a", 1)],
                         cache_put=lambda u, p: written.update({u.key: p}))
        assert written == {"a": {"value": 2}}

    def test_cache_hits_are_journaled_too(self, tmp_path):
        with EngineSession(1, journal=RunJournal(tmp_path / "j.jsonl")) as sess:
            sess.run_units([unit("a", 1)], cache_get=lambda u: {"value": 2})
        assert RunJournal(tmp_path / "j.jsonl").get("a") == {"value": 2}

    def test_serial_interrupt_then_resume(self, tmp_path):
        """A drain mid-batch journals what settled; a resume finishes it."""
        journal = RunJournal(tmp_path / "j.jsonl", run_id="r")
        units = [unit(f"k{i}", i) for i in range(6)]
        with EngineSession(1, journal=journal, run_id="r") as sess:
            # the cache_put hook fires after each settle: stop after three
            def stopping_put(u, payload):
                if len(journal) >= 3:
                    sess.request_stop("test stop")

            with pytest.raises(RunInterrupted) as exc_info:
                sess.run_units(units, cache_put=stopping_put)
            assert exc_info.value.settled == 3
            assert exc_info.value.reason == "test stop"
        journal2 = RunJournal(tmp_path / "j.jsonl", run_id="r")
        assert len(journal2) == 3
        with EngineSession(1, journal=journal2, run_id="r") as resumed:
            results = resumed.run_units(units)
        assert results == {f"k{i}": {"value": 2 * i} for i in range(6)}
        assert resumed.stats["journal_hits"] == 3
        assert resumed.stats["executed"] == 3

    def test_stop_before_dispatch_raises_with_resume_state(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl", run_id="r")
        with EngineSession(1, journal=journal, run_id="r") as sess:
            sess.request_stop("SIGTERM")
            with pytest.raises(RunInterrupted) as exc_info:
                sess.run_units([unit("a", 1), unit("b", 2)])
        assert exc_info.value.pending == 2
        assert sess.events.count("run_interrupted") == 1
        event = [e for e in sess.events.events
                 if e.kind == "run_interrupted"][0]
        assert event.data["resume"] == "--resume r"
        assert event.data["reason"] == "SIGTERM"

    def test_journal_write_failure_emits_event(self, tmp_path):
        target = tmp_path / "j.jsonl"
        target.mkdir()  # open() for append will fail
        journal = RunJournal(target)
        with EngineSession(1, journal=journal) as sess:
            results = sess.run_units([unit("a", 1)])
        assert results == {"a": {"value": 2}}  # the run itself survives
        assert sess.events.count("journal_write_failed") == 1
