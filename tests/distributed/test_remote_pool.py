"""Coordinator/worker semantics, in-process: lease lifecycle, at-most-once
settle, journal-before-ack ordering, degradation, drain.

Workers here are :func:`repro.engine.remote.run_worker` on daemon
threads — the same loop ``repro worker`` runs, minus the process
boundary, so these tests are fast and deterministic.  The lease tests
use :func:`tests.chaos.injectors.net_chaos_peer` instead, a scripted
worker that drops, duplicates or tears its result frames.  The
process-level SIGKILL scenarios live in
``tests/chaos/test_remote_chaos.py``.
"""

import socket
import threading
import time

import pytest

from repro.engine.events import EventLog
from repro.engine.pool import PoolUnavailable, RunInterrupted, UnitFailure
from repro.engine.remote import RemotePool, run_worker
from repro.engine.units import WorkUnit, register_executor
from tests.chaos.injectors import NetChaos, net_chaos_peer


def _echo(spec):
    return {"value": spec[0] * 2}


def _boom(spec):
    raise ValueError(f"bad spec {spec[0]}")


register_executor("rt-echo", _echo)
register_executor("rt-boom", _boom)


def unit(kind, key, *spec):
    return WorkUnit(kind, key, spec, label=f"{kind}:{key}")


def start_worker(address, **kwargs):
    kwargs.setdefault("retry_for", 15.0)
    t = threading.Thread(target=run_worker, args=(address,), kwargs=kwargs,
                         daemon=True)
    t.start()
    return t


def start_peer(address, plan, name):
    """A scripted worker misbehaving on the wire as ``plan`` says."""
    t = threading.Thread(target=net_chaos_peer, args=(address, plan),
                         kwargs={"name": name}, daemon=True)
    t.start()
    return t


@pytest.fixture
def pool():
    p = RemotePool("127.0.0.1:0", lease_timeout=30.0, events=EventLog())
    yield p
    p.close()


class TestExecution:
    def test_results_land_and_on_result_fires_once_per_key(self, pool):
        start_worker(pool.address, name="w1")
        seen = []
        results = pool.run([unit("rt-echo", f"k{i}", i) for i in range(6)],
                           on_result=lambda k, p: seen.append(k))
        assert results == {f"k{i}": {"value": i * 2} for i in range(6)}
        assert sorted(seen) == sorted(results)

    def test_duplicate_keys_within_a_batch_run_once(self, pool):
        start_worker(pool.address, name="w1")
        results = pool.run([unit("rt-echo", "same", 3),
                            unit("rt-echo", "same", 3)])
        assert results == {"same": {"value": 6}}
        assert pool.events.count("unit_done") == 1

    def test_two_workers_share_one_batch(self, pool):
        start_worker(pool.address, name="w1")
        start_worker(pool.address, name="w2")
        results = pool.run([unit("rt-echo", f"k{i}", i) for i in range(12)])
        assert len(results) == 12
        workers = {e.data["worker"] for e in pool.events.events
                   if e.kind == "unit_done"}
        assert workers <= {"w1", "w2"}

    def test_executor_error_carries_worker_traceback(self, pool):
        start_worker(pool.address, name="w1")
        with pytest.raises(UnitFailure) as err:
            pool.run([unit("rt-boom", "bad", 9)])
        assert "bad spec 9" in str(err.value)
        assert "w1" in str(err.value)

    def test_empty_batch_is_a_noop(self, pool):
        assert pool.run([]) == {}


class TestLeaseLifecycle:
    def test_dropped_result_expires_the_lease_and_reissues(self):
        # the worker executes unit 0 but never sends the result: the lease
        # must time out, the unit re-issue, and the second attempt settle
        with RemotePool("127.0.0.1:0", lease_timeout=0.3, backoff=0.05,
                        max_retries=2) as pool:
            start_peer(pool.address, NetChaos(drop={0}), "w1")
            results = pool.run([unit("rt-echo", "k0", 5)])
            assert results == {"k0": {"value": 10}}
            assert pool.events.count("lease_expired") == 1
            assert pool.events.count("unit_retry") == 1

    def test_exhausted_lease_budget_fails_the_unit(self):
        with RemotePool("127.0.0.1:0", lease_timeout=0.2, backoff=0.05,
                        max_retries=1) as pool:
            start_peer(pool.address, NetChaos(drop={0, 1, 2, 3}), "w1")
            with pytest.raises(UnitFailure) as err:
                pool.run([unit("rt-echo", "k0", 5)])
            assert "retry budget" in str(err.value)

    def test_duplicate_result_frame_settles_exactly_once(self, pool):
        # duplicate the first result; a second unit keeps the batch open so
        # the duplicate frame is processed while the run is still active
        start_peer(pool.address, NetChaos(duplicate={0}), "w1")
        seen = []
        results = pool.run([unit("rt-echo", "k0", 4), unit("rt-echo", "k1", 5)],
                           on_result=lambda k, p: seen.append(k))
        assert results == {"k0": {"value": 8}, "k1": {"value": 10}}
        assert sorted(seen) == ["k0", "k1"]  # journal hook: once per key
        assert pool.events.count("duplicate_settle") == 1
        assert pool.events.count("unit_done") == 2

    def test_torn_result_frame_is_a_disconnect_not_a_result(self):
        # half a frame then EOF: the coordinator must drop the connection,
        # re-issue the lease, and settle on the worker's reconnect
        with RemotePool("127.0.0.1:0", lease_timeout=30.0, backoff=0.05,
                        max_retries=2) as pool:
            start_peer(pool.address, NetChaos(torn={0}), "w1")
            results = pool.run([unit("rt-echo", "k0", 6)])
            assert results == {"k0": {"value": 12}}
            assert pool.events.count("worker_disconnected") == 1
            assert pool.events.count("unit_done") == 1

    def test_disconnect_releases_leases_immediately(self):
        # a worker that dies holding a lease must not stall the run for
        # the full lease_timeout: the release path zeroes the deadline
        with RemotePool("127.0.0.1:0", lease_timeout=300.0, backoff=0.05,
                        max_retries=2) as pool:
            start_peer(pool.address, NetChaos(torn={0}), "dier")
            started = time.monotonic()
            results = pool.run([unit("rt-echo", "k0", 7)])
            assert results == {"k0": {"value": 14}}
            assert time.monotonic() - started < 30.0


class TestDegradationAndDrain:
    def test_no_worker_within_timeout_raises_pool_unavailable(self):
        with RemotePool("127.0.0.1:0", worker_timeout=0.2) as pool:
            with pytest.raises(PoolUnavailable):
                pool.run([unit("rt-echo", "k0", 1)])

    def test_drain_with_no_workers_reports_everything_pending(self):
        with RemotePool("127.0.0.1:0", should_stop=lambda: True,
                        drain_grace=0.2) as pool:
            with pytest.raises(RunInterrupted) as err:
                pool.run([unit("rt-echo", f"k{i}", i) for i in range(3)])
            assert err.value.settled == 0
            assert err.value.pending == 3

    def test_closed_pool_refuses_batches(self):
        pool = RemotePool("127.0.0.1:0")
        pool.close()
        with pytest.raises(PoolUnavailable):
            pool.run([unit("rt-echo", "k0", 1)])

    def test_workers_exit_when_the_pool_closes(self, pool):
        t = start_worker(pool.address, name="w1", retry_for=5.0)
        pool.run([unit("rt-echo", "k0", 1)])
        pool.close()
        t.join(timeout=15.0)
        assert not t.is_alive()

    def test_worker_exits_after_retry_window_with_no_coordinator(self):
        t = start_worker("127.0.0.1:9", retry_for=0.3)  # discard port: refused
        t.join(timeout=15.0)
        assert not t.is_alive()


class TestCloseRace:
    def test_close_racing_a_new_connection_never_joins_an_unstarted_thread(
            self):
        # close() runs the moment the new connection's thread is registered
        # with the pool: it must neither fail nor join a thread that has
        # not started ("cannot join thread before it is started")
        pool = RemotePool("127.0.0.1:0")
        errors = []
        closers = []

        def close():
            try:
                pool.close()
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        class CloseOnRegister(list):
            def append(self, thread):
                super().append(thread)
                closer = threading.Thread(target=close, daemon=True)
                closers.append(closer)
                closer.start()
                closer.join(timeout=0.5)  # let close() run now if it can

        pool._threads = CloseOnRegister()
        mine, theirs = socket.socketpair()
        try:
            pool._serve(mine, 99)
        finally:
            theirs.close()  # EOF ends the connection thread
        [closer] = closers
        closer.join(timeout=15.0)
        assert not closer.is_alive()
        assert errors == []

    def test_a_closed_pool_serves_no_new_connection(self):
        pool = RemotePool("127.0.0.1:0")
        pool.close()
        mine, theirs = socket.socketpair()
        with theirs:
            pool._serve(mine, 99)
            assert pool._threads == []
            assert theirs.recv(1) == b""  # hung up on


class TestSchedulerIntegration:
    def test_session_listen_prefers_the_remote_pool(self):
        from repro.engine.scheduler import EngineSession

        sess = EngineSession(4, listen="127.0.0.1:0")
        try:
            assert sess.remote_address is not None
            assert isinstance(sess._pool, RemotePool)
            start_worker(sess.remote_address, name="w1")
            results = sess.run_units([unit("rt-echo", "k0", 2)])
            assert results == {"k0": {"value": 4}}
        finally:
            sess.close()

    def test_summary_counts_the_remote_workers_not_the_request(self):
        from repro.engine.scheduler import EngineSession

        sess = EngineSession(1, listen="127.0.0.1:0")
        try:
            start_worker(sess.remote_address, name="w1")
            start_worker(sess.remote_address, name="w2")
            deadline = time.monotonic() + 15.0
            while (sess.events.count("worker_connected") < 2
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            sess.run_units([unit("rt-echo", f"k{i}", i) for i in range(4)])
            [start] = [e for e in sess.events.events
                       if e.kind == "batch_start"]
            assert start.data["workers"] == 2
            assert "4 executed on 2 worker(s)" in sess.summary()
        finally:
            sess.close()

    def test_session_listen_degrades_serially_on_worker_timeout(self):
        from repro.engine.scheduler import EngineSession

        sess = EngineSession(4, listen="127.0.0.1:0", worker_timeout=0.2)
        try:
            results = sess.run_units([unit("rt-echo", "k0", 3)])
            assert results == {"k0": {"value": 6}}
            assert sess.events.count("serial_fallback") == 1
        finally:
            sess.close()
