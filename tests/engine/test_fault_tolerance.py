"""Fault tolerance: workers killed mid-unit must not lose work.

The crash executors SIGKILL their own process — indistinguishable from
an OOM kill — *before* reporting anything, so the parent only learns
about it from process liveness; ``_kill_mid_send`` kills its process
while the result is half written.  A marker file records "this unit
already killed one worker", making the retry succeed.
"""

import json
import os
import signal
import struct
import sys
import threading
import time

import pytest

from repro.engine.pool import UnitFailure
from repro.engine.remote import RemotePool
from repro.engine.units import WorkUnit, register_executor
from repro.experiments.store import report_to_dict


def _echo(spec):
    return {"value": spec[0]}


def _crash_once(spec):
    marker, value = spec
    if not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return {"value": value}


def _crash_always(spec):
    os.kill(os.getpid(), signal.SIGKILL)


def _crash_once_sweep_point(spec):
    """Sweep-point executor that SIGKILLs the first worker that runs it."""
    marker = os.environ.get("REPRO_TEST_CRASH_MARKER", "")
    if marker and not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    from repro.pipeline.builders import execute_sweep_point

    return execute_sweep_point(spec)


#: far larger than a socket buffer, so sending it takes many writes
_BLOB = "x" * (8 << 20)


def _kill_mid_send(spec):
    """Return a multi-MiB payload; on the first attempt, SIGKILL this
    process once half of the result frame is written.

    A profile hook catches ``send_frame`` at its ``sendall`` call, writes
    the first half of the frame itself and kills the process, so the
    coordinator is left holding a torn frame.  ``fired`` is created just
    before the kill, so the coordinator can hold off settling other results
    until the worker is dead with its result half written.
    """
    marker, fired = spec
    if not os.path.exists(marker):
        open(marker, "w").close()

        def kill_in_frame(frame, event, arg):
            if (event == "c_call" and getattr(arg, "__name__", "") == "sendall"
                    and frame.f_code.co_name == "send_frame"
                    and len(frame.f_locals["body"]) > len(_BLOB)):
                body = frame.f_locals["body"]
                blob = struct.pack(">I", len(body)) + body
                frame.f_locals["sock"].sendall(blob[: len(blob) // 2])
                open(fired, "w").close()
                os.kill(os.getpid(), signal.SIGKILL)

        sys.setprofile(kill_in_frame)
    return {"blob": _BLOB}


register_executor("t-ft-echo", _echo)
register_executor("t-kill-mid-send", _kill_mid_send)
register_executor("t-crash-once", _crash_once)
register_executor("t-crash-always", _crash_always)
register_executor("t-crash-once-sweep", _crash_once_sweep_point)


def unit(kind, key, *spec):
    return WorkUnit(kind=kind, key=key, spec=spec, label=key)


class TestWorkerKill:
    def test_killed_worker_loses_only_inflight_unit(self, tmp_path):
        marker = str(tmp_path / "killed")
        units = [unit("t-ft-echo", f"k{i}", i) for i in range(6)]
        units.insert(3, unit("t-crash-once", "victim", marker, 42))
        with RemotePool(local_workers=2, lease_timeout=60.0, max_retries=2, backoff=0.01) as pool:
            results = pool.run(units)
        # every unit completed, including the one whose worker was killed
        assert results["victim"] == {"value": 42}
        assert all(results[f"k{i}"] == {"value": i} for i in range(6))
        assert pool.events.count("worker_crashed") >= 1
        assert pool.events.count("worker_restarted") >= 1
        assert pool.events.count("unit_retry") >= 1

    def test_worker_killed_mid_send_loses_only_its_unit(self, tmp_path):
        """A worker SIGKILLed while its multi-MiB result is half sent must
        not wedge the pool: every other unit settles and the killed one
        is retried on a fresh worker."""
        fired = tmp_path / "fired"
        units = [unit("t-ft-echo", "k0", 0),
                 unit("t-kill-mid-send", "victim", str(tmp_path / "killed"),
                      str(fired))]
        units += [unit("t-ft-echo", f"k{i}", i) for i in range(1, 6)]

        def on_result(key, payload):
            if key == "k0":
                # hold off settling until the victim is dead mid-send
                deadline = time.monotonic() + 30
                while not fired.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                time.sleep(0.2)

        out = {}

        def run():
            with RemotePool(local_workers=2, lease_timeout=60.0, max_retries=2,
                            backoff=0.01) as pool:
                out["pool"] = pool
                out["results"] = pool.run(units, on_result=on_result)

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(120)
        assert not runner.is_alive(), "pool wedged after a mid-send kill"
        results, pool = out["results"], out["pool"]
        assert fired.exists()
        assert results["victim"] == {"blob": _BLOB}
        assert all(results[f"k{i}"] == {"value": i} for i in range(6))
        assert pool.events.count("worker_crashed") >= 1
        assert pool.events.count("unit_retry") >= 1

    def test_repeated_crashes_exhaust_retry_budget(self):
        with RemotePool(local_workers=2, lease_timeout=60.0, max_retries=1, backoff=0.01) as pool:
            with pytest.raises(UnitFailure, match="retry budget"):
                pool.run([unit("t-crash-always", "doomed")])
        assert pool.events.count("worker_crashed") >= 2

    def test_worker_kill_mid_sweep_yields_correct_report(
        self, tmp_path, monkeypatch
    ):
        """Kill a worker during a real table2 sweep; the run must complete
        and produce a report identical to an undisturbed serial run."""
        from repro import engine, pipeline
        from repro.experiments.registry import run_experiment
        from repro.pipeline import builders

        options = dict(scale=0.03, thread_counts=(1, 2))

        restore = pipeline.get_disk_store()
        try:
            pipeline.set_disk_store(tmp_path / "serial-store")
            serial = run_experiment("table2", **options)

            # reroute the first declared unit through the crashing executor
            monkeypatch.setenv(
                "REPRO_TEST_CRASH_MARKER", str(tmp_path / "killed")
            )
            real_point_unit = builders.sim_point_unit
            wrapped = {"done": False}

            def crashing_point_unit(workload, p, mem_scale, config):
                u = real_point_unit(workload, p, mem_scale, config)
                if not wrapped["done"]:
                    wrapped["done"] = True
                    u = WorkUnit(kind="t-crash-once-sweep", key=u.key,
                                 spec=u.spec, label=u.label)
                return u

            monkeypatch.setattr(builders, "sim_point_unit", crashing_point_unit)

            pipeline.set_disk_store(tmp_path / "engine-store")
            with engine.session(2) as sess:
                parallel = run_experiment("table2", **options)

            assert sess.events.count("worker_crashed") >= 1
            assert sess.events.count("unit_retry") >= 1
            assert sess.stats["executed"] == 6  # no unit lost, none doubled
            assert parallel.render() == serial.render()
            assert (
                json.dumps(report_to_dict(parallel), sort_keys=True)
                == json.dumps(report_to_dict(serial), sort_keys=True)
            )
        finally:
            pipeline.set_disk_store(restore)
