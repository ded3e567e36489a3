"""Scheduler semantics: dedup, cache tiers, degradation, session wiring.

These tests force the in-process serial pool (one worker), so executor
side effects are observable in this process without multiprocessing.
"""

import json

import pytest

from repro import engine
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

    def test_progress_events_carry_eta(self):
        with EngineSession(1) as sess:
            sess.run_units([unit("a", 1), unit("b", 2)])
        progress = [e for e in sess.events.events if e.kind == "progress"]
        assert [e.data["done"] for e in progress] == [1, 2]
        assert all(e.data["total"] == 2 and e.data["eta_s"] >= 0 for e in progress)


class TestDegradation:
    def test_env_var_forces_serial_pool(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_SERIAL", "1")
        with EngineSession(4) as sess:
            results = sess.run_units([unit("a", 1)])
            assert isinstance(sess._pool, SerialPool)
        assert results == {"a": {"n": 1}}
        assert sess.events.count("serial_fallback") == 1

    def test_single_worker_uses_serial_pool(self):
        with EngineSession(1) as sess:
            sess.run_units([unit("a", 1)])
            assert isinstance(sess._pool, SerialPool)


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


class TestPrecompute:
    def test_precompute_dedups_across_experiments(self, tmp_path):
        """table2 and fig2 declare the same sweep — it must run once."""
        from repro import pipeline

        restore = pipeline.get_disk_store()
        try:
            pipeline.set_disk_store(tmp_path / "store")
            pipeline.clear_memo()
            with engine.session(1) as sess:
                declared = engine.precompute(
                    sess, ["table2", "fig2", "fig4"],
                    {"scale": 0.03, "thread_counts": (1, 2),
                     "hw_thread_counts": (1, 2)},
                )
            # sweep: 2 experiments x 3 workloads x 2 points, shared
            # between table2 and fig2; hardware: fig2's own stage,
            # 3 workloads x 2 points; plus fig4's one model-eval-grid
            assert declared == 19
            assert sess.stats["deduped"] == 6
            assert sess.stats["executed"] == 13
        finally:
            pipeline.set_disk_store(restore)
            pipeline.clear_memo()
