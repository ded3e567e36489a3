"""Scheduler semantics: dedup, cache tiers, degradation, session wiring.

These tests force the in-process serial pool (one worker), so executor
side effects are observable in this process without multiprocessing.
"""

import json

import pytest

from repro import engine
from repro.engine.events import EventLog
from repro.engine.scheduler import EngineSession
from repro.engine.pool import SerialPool
from repro.engine.units import WorkUnit, register_executor

CALLS = []


def _count(spec):
    CALLS.append(spec)
    return {"n": spec[0]}


register_executor("t-sched-count", _count)


def unit(key, *spec):
    return WorkUnit(kind="t-sched-count", key=key, spec=spec, label=key)


@pytest.fixture(autouse=True)
def _reset_calls():
    CALLS.clear()


class TestScheduling:
    def test_duplicate_keys_collapse_to_one_execution(self):
        with EngineSession(1) as sess:
            results = sess.run_units([unit("a", 1), unit("a", 1), unit("b", 2)])
        assert results == {"a": {"n": 1}, "b": {"n": 2}}
        assert len(CALLS) == 2
        assert sess.stats["deduped"] == 1

    def test_cache_hits_never_reach_the_pool(self):
        seeded = {"a": {"n": 99}}
        with EngineSession(1) as sess:
            results = sess.run_units(
                [unit("a", 1), unit("b", 2)],
                cache_get=lambda u: seeded.get(u.key),
            )
        assert results == {"a": {"n": 99}, "b": {"n": 2}}
        assert len(CALLS) == 1  # only the miss executed
        assert sess.stats["cache_hits"] == 1
        assert sess.events.count("cache_hit") == 1

    def test_cache_put_called_per_executed_unit(self):
        written = []
        with EngineSession(1) as sess:
            sess.run_units(
                [unit("a", 1), unit("b", 2)],
                cache_put=lambda u, payload: written.append((u.key, payload)),
            )
        assert sorted(written) == [("a", {"n": 1}), ("b", {"n": 2})]

    def test_cache_put_failure_is_tolerated(self):
        def bad_put(u, payload):
            raise OSError("disk full")

        with EngineSession(1) as sess:
            results = sess.run_units([unit("a", 1)], cache_put=bad_put)
        assert results == {"a": {"n": 1}}
        assert sess.events.count("cache_put_failed") == 1

    def test_summary_names_no_workers_when_every_unit_hits(self):
        """Two workers requested, every unit a cache hit: no pool is
        built, so the summary must not claim workers ran anything."""
        with EngineSession(2) as sess:
            sess.run_units([unit("a", 1)], cache_get=lambda u: {"n": 0})
            summary = sess.summary()
        assert summary == ("1 unit(s): 1 cache hit(s), 0 executed, "
                           "no worker started")
        assert sess.events.count("worker_started") == 0
        assert not CALLS

    def test_summary_counts_each_key_once_per_session(self):
        """A second batch over settled keys (a second resolve in the same
        session) adds references, not units or hits."""
        memo = {}
        with EngineSession(1) as sess:
            for _ in range(2):
                sess.run_units(
                    [unit("a", 1), unit("b", 2), unit("a", 1)],
                    cache_get=lambda u: memo.get(u.key),
                    cache_put=lambda u, payload: memo.__setitem__(u.key, payload),
                )
            summary = sess.summary()
        assert len(CALLS) == 2
        assert sess.stats["executed"] == 2
        assert sess.stats["cache_hits"] == 0
        assert summary == ("2 unit(s): 0 cache hit(s), 2 executed on 1 "
                           "worker(s); 4 deduplicated")

    def test_summary_counts_a_key_under_the_tier_that_first_settled_it(self):
        memo = {"a": {"n": 0}}
        with EngineSession(1) as sess:
            sess.run_units([unit("a", 1)], cache_get=lambda u: memo.get(u.key))
            sess.run_units([unit("a", 1), unit("b", 2)],
                           cache_get=lambda u: memo.get(u.key))
        assert sess.stats["cache_hits"] == 1
        assert sess.stats["executed"] == 1
        assert sess.stats["units"] - sess.stats["deduped"] == 2

    def test_progress_events_carry_eta(self):
        with EngineSession(1) as sess:
            sess.run_units([unit("a", 1), unit("b", 2)])
        progress = [e for e in sess.events.events if e.kind == "progress"]
        assert [e.data["done"] for e in progress] == [1, 2]
        assert all(e.data["total"] == 2 and e.data["eta_s"] >= 0 for e in progress)


class TestDegradation:
    def test_single_worker_uses_serial_pool(self):
        with EngineSession(1) as sess:
            sess.run_units([unit("a", 1)])
            assert isinstance(sess._pool, SerialPool)

    def test_single_worker_is_not_a_fallback(self):
        """Asking for one worker degrades nothing: no serial_fallback
        (a WARNING kind) for a unit that ran where it was asked to."""
        with EngineSession(1) as sess:
            assert sess.run_units([unit("a", 1)]) == {"a": {"n": 1}}
        assert sess.events.count("unit_done") == 1
        assert sess.events.count("serial_fallback") == 0


class TestSessionWiring:
    def test_session_installs_ambient_engine(self):
        assert engine.current_session() is None
        with engine.session(1) as sess:
            assert engine.current_session() is sess
        assert engine.current_session() is None

    def test_event_log_written_as_jsonl(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with engine.session(1, event_log=str(path)) as sess:
            sess.run_units([unit("a", 1)])
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines and all("kind" in l and "t" in l for l in lines)
        assert any(l["kind"] == "unit_done" for l in lines)

    def test_library_resolution_goes_through_run_units(self, monkeypatch):
        """With no session installed, a library run still settles its
        units in EngineSession.run_units, on a session it does not
        install."""
        from repro.experiments.registry import run_experiment

        calls = []
        real_run_units = EngineSession.run_units

        def spy(self, units, **hooks):
            units = list(units)
            calls.append((len(units), engine.current_session()))
            return real_run_units(self, units, **hooks)

        monkeypatch.setattr(EngineSession, "run_units", spy)
        assert engine.current_session() is None
        report = run_experiment("ext-falsesharing")
        assert report.render()
        assert calls
        assert all(n > 0 and installed is None for n, installed in calls)

    def test_event_log_file_exists_before_any_event(self, tmp_path):
        path = tmp_path / "logs" / "events.jsonl"
        log = EventLog(jsonl_path=path)
        log.close()
        assert path.read_text() == ""

    def test_unwritable_event_log_warns_and_is_disabled(self, tmp_path, caplog):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        log = EventLog(jsonl_path=blocker / "events.jsonl")
        log.emit("unit_done", key="a")  # must not raise
        log.close()
        assert log.count("unit_done") == 1
        assert "cannot write event log" in caplog.text


class TestRunExperiments:
    def test_batch_dedups_across_experiments(self, tmp_path):
        """table2 and fig2 declare the same sweep — it must run once."""
        from repro import pipeline
        from repro.experiments.registry import run_experiments

        options = {"scale": 0.03, "thread_counts": (1, 2)}
        restore = pipeline.get_disk_store()
        try:
            pipeline.set_disk_store(tmp_path / "store")
            with engine.session(1) as sess:
                reports = list(run_experiments([
                    ("table2", options), ("fig2", options), ("fig4", {})]))
            # sweep: 2 experiments x 3 workloads x 2 points, shared
            # between table2 and fig2; hardware: fig2's own stage,
            # 3 workloads x 4 points; fig4 evaluates its model in
            # assemble and declares nothing
            assert [r.experiment_id for r in reports] == ["table2", "fig2", "fig4"]
            assert sess.stats["units"] == 24
            assert sess.stats["deduped"] == 6
            assert sess.stats["executed"] == 18
        finally:
            pipeline.set_disk_store(restore)
