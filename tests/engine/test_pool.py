"""Worker-pool behaviour: execution, errors, timeouts.

Test executors are registered at import time in this module; local
worker processes import it by name when they start, which registers
them there too.
"""

import os
import time

import pytest

from repro.engine.events import EventLog
from repro.engine.pool import (
    RunInterrupted,
    SerialPool,
    UnitFailure,
)
from repro.engine.remote import RemotePool
from repro.engine.units import WorkUnit, register_executor


def _echo(spec):
    return {"value": spec[0] * 2}


def _boom(spec):
    raise ValueError(f"bad spec {spec[0]}")


def _nap(spec):
    time.sleep(spec[0])
    return {"slept": spec[0]}


def _nap_once(spec):
    """Hang only on the first attempt (marker file = 'already tried')."""
    marker, value = spec
    if not os.path.exists(marker):
        open(marker, "w").close()
        time.sleep(60)
    return {"value": value}


register_executor("t-echo", _echo)
register_executor("t-boom", _boom)
register_executor("t-nap", _nap)
register_executor("t-nap-once", _nap_once)


def unit(kind, key, *spec):
    return WorkUnit(kind=kind, key=key, spec=spec, label=key)


class TestSerialPool:
    def test_runs_units_in_process(self):
        pool = SerialPool()
        results = pool.run([unit("t-echo", f"k{i}", i) for i in range(4)])
        assert results == {f"k{i}": {"value": 2 * i} for i in range(4)}
        assert pool.events.count("unit_done") == 4

    def test_duplicate_keys_execute_once(self):
        pool = SerialPool()
        results = pool.run([unit("t-echo", "same", 1), unit("t-echo", "same", 1)])
        assert results == {"same": {"value": 2}}
        assert pool.events.count("unit_done") == 1

    def test_exception_is_unit_failure(self):
        with pytest.raises(UnitFailure, match="k0"):
            SerialPool().run([unit("t-boom", "k0", 7)])

    def test_on_result_callback(self):
        seen = []
        SerialPool().run([unit("t-echo", "a", 1)],
                         on_result=lambda k, p: seen.append((k, p)))
        assert seen == [("a", {"value": 2})]

    def test_failure_carries_the_full_traceback(self):
        """Parity with the worker path: the serial failure report must
        include the formatted traceback, not just the exception repr."""
        with pytest.raises(UnitFailure) as exc_info:
            SerialPool().run([unit("t-boom", "k0", 7)])
        assert "Traceback (most recent call last)" in str(exc_info.value)
        assert "ValueError: bad spec 7" in str(exc_info.value)

    def test_stop_request_interrupts_between_units(self):
        stop_after = {"n": 2}

        def should_stop():
            return stop_after["n"] <= 0

        def on_result(key, payload):
            stop_after["n"] -= 1

        pool = SerialPool(should_stop=should_stop)
        with pytest.raises(RunInterrupted) as exc_info:
            pool.run([unit("t-echo", f"k{i}", i) for i in range(5)],
                     on_result=on_result)
        assert exc_info.value.settled == 2
        assert exc_info.value.pending == 3


class TestWorkerPool:
    def test_parallel_execution(self):
        with RemotePool(local_workers=3, lease_timeout=60.0) as pool:
            results = pool.run([unit("t-echo", f"k{i}", i) for i in range(10)])
        assert results == {f"k{i}": {"value": 2 * i} for i in range(10)}
        assert pool.events.count("worker_started") == 3
        assert pool.events.count("unit_done") == 10

    def test_pool_reusable_across_batches(self):
        with RemotePool(local_workers=2, lease_timeout=60.0) as pool:
            first = pool.run([unit("t-echo", "a", 1)])
            second = pool.run([unit("t-echo", "b", 2)])
        assert first == {"a": {"value": 2}}
        assert second == {"b": {"value": 4}}
        # the same workers served both batches
        assert pool.events.count("worker_started") == 2

    def test_executor_exception_fails_fast(self):
        with RemotePool(local_workers=2, lease_timeout=60.0) as pool:
            with pytest.raises(UnitFailure, match="ValueError"):
                pool.run([unit("t-boom", "bad", 3)])

    def test_unit_timeout_exhausts_retries(self):
        with RemotePool(local_workers=1, lease_timeout=0.5, max_retries=0, backoff=0.01) as pool:
            started = time.monotonic()
            with pytest.raises(UnitFailure, match="retry budget"):
                pool.run([unit("t-nap", "slow", 30)])
        assert time.monotonic() - started < 15
        assert pool.events.count("unit_timeout") == 1

    def test_unit_timeout_then_retry_succeeds(self, tmp_path):
        marker = str(tmp_path / "tried")
        with RemotePool(local_workers=1, lease_timeout=1.0, max_retries=2, backoff=0.01) as pool:
            results = pool.run([unit("t-nap-once", "flaky", marker, 9)])
        assert results == {"flaky": {"value": 9}}
        assert pool.events.count("unit_timeout") >= 1
        assert pool.events.count("unit_retry") >= 1
        assert pool.events.count("worker_restarted") >= 1

    def test_pool_reusable_after_unit_failure(self):
        """A failed batch must not leave dirty slots: the next batch on
        the same pool runs normally (regression: in-flight bookkeeping
        survived the UnitFailure raise and mis-saw busy workers)."""
        with RemotePool(local_workers=2, lease_timeout=60.0) as pool:
            with pytest.raises(UnitFailure):
                pool.run([unit("t-boom", "bad", 1)] +
                         [unit("t-echo", f"k{i}", i) for i in range(4)])
            # no lease may be left outstanding
            assert pool._batch is None
            results = pool.run([unit("t-echo", "after", 21)])
        assert results == {"after": {"value": 42}}

    def test_queue_depth_gauge_resets_after_failure(self):
        from repro import obs

        obs.set_enabled(True)
        try:
            obs.reset()
            with RemotePool(local_workers=2, lease_timeout=60.0) as pool:
                with pytest.raises(UnitFailure):
                    pool.run([unit("t-boom", "bad", 1)] +
                             [unit("t-echo", f"g{i}", i) for i in range(3)])
                gauge = obs.gauge("engine_queue_depth", "")
                assert gauge.value() == 0
        finally:
            obs.set_enabled(False)
            obs.reset()

    def test_stop_request_drains_and_reports_state(self):
        stop = {"flag": False}
        with RemotePool(local_workers=2, lease_timeout=60.0, backoff=0.01,
                        should_stop=lambda: stop["flag"],
                        drain_grace=5.0) as pool:
            def on_result(key, payload):
                stop["flag"] = True  # request the stop after the 1st settle

            with pytest.raises(RunInterrupted) as exc_info:
                pool.run([unit("t-echo", f"k{i}", i) for i in range(8)],
                         on_result=on_result)
        exc = exc_info.value
        assert exc.settled >= 1
        assert exc.settled + len(exc.abandoned) + exc.pending == 8
        assert pool.events.count("drain_started") == 1

    def test_drain_reports_parked_retries_as_abandoned(self, tmp_path):
        """A retry sitting in the delayed queue when the drain starts must
        surface in ``RunInterrupted.abandoned`` — it was dispatched and
        lost, not never-dispatched ``pending`` work."""
        from tests.chaos.injectors import KILL_ONCE

        events = EventLog()
        victim = WorkUnit(kind=KILL_ONCE, key="victim",
                          spec=(str(tmp_path / "marker"), 1), label="victim")
        with RemotePool(local_workers=2, lease_timeout=60.0, max_retries=2,
                        backoff=30.0, max_backoff=30.0,  # retry parks for 30s
                        events=events,
                        should_stop=lambda: events.count("unit_retry") > 0,
                        drain_grace=2.0) as pool:
            with pytest.raises(RunInterrupted) as exc_info:
                pool.run([victim]
                         + [unit("t-echo", f"k{i}", i) for i in range(3)])
        exc = exc_info.value
        assert "victim" in exc.abandoned
        assert exc.settled + len(exc.abandoned) + exc.pending == 4

    def test_pool_reusable_after_drain(self):
        stop = {"flag": False}
        with RemotePool(local_workers=2, lease_timeout=60.0, backoff=0.01,
                        should_stop=lambda: stop["flag"],
                        drain_grace=5.0) as pool:
            def on_result(key, payload):
                stop["flag"] = True

            with pytest.raises(RunInterrupted):
                pool.run([unit("t-echo", f"k{i}", i) for i in range(8)],
                         on_result=on_result)
            stop["flag"] = False  # stop cleared: the pool must work again
            results = pool.run([unit("t-echo", "again", 5)])
        assert results == {"again": {"value": 10}}
