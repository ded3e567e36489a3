"""Pool-level fault injection: killed and hung workers mid-run.

Exercises the chaos executors (registered at import of
``tests.chaos.injectors``) against real local worker processes, which
import that module by name: the pool must retry the unit on a fresh
worker and still deliver every result.
"""

from repro.engine.remote import RemotePool
from repro.engine.units import WorkUnit, register_executor
from tests.chaos.injectors import HANG_ONCE, KILL_ONCE


def _echo(spec):
    return {"value": spec[0] * 2}


register_executor("ch-echo", _echo)


class TestWorkerKill:
    def test_sigkilled_worker_retries_and_completes(self, tmp_path):
        unit = WorkUnit(kind=KILL_ONCE, key="victim",
                        spec=(str(tmp_path / "marker"), 7), label="victim")
        with RemotePool(local_workers=2, lease_timeout=60.0, max_retries=2,
                        backoff=0.01) as pool:
            results = pool.run([unit])
        assert results == {"victim": {"value": 7}}
        assert pool.events.count("worker_crashed") >= 1
        assert pool.events.count("worker_restarted") >= 1
        assert pool.events.count("unit_retry") >= 1

    def test_killed_worker_loses_only_its_unit(self, tmp_path):
        victim = WorkUnit(kind=KILL_ONCE, key="victim",
                          spec=(str(tmp_path / "marker"), 1), label="victim")
        bystanders = [
            WorkUnit(kind="ch-echo", key=f"b{i}", spec=(i,), label=f"b{i}")
            for i in range(6)
        ]
        with RemotePool(local_workers=3, lease_timeout=60.0, max_retries=2,
                        backoff=0.01) as pool:
            results = pool.run([victim] + bystanders)
        assert results["victim"] == {"value": 1}
        for i in range(6):
            assert results[f"b{i}"] == {"value": 2 * i}


class TestUnitHang:
    def test_hung_unit_times_out_then_succeeds(self, tmp_path):
        unit = WorkUnit(kind=HANG_ONCE, key="sloth",
                        spec=(str(tmp_path / "marker"), 60.0, 5), label="sloth")
        with RemotePool(local_workers=1, lease_timeout=1.0, max_retries=2,
                        backoff=0.01) as pool:
            results = pool.run([unit])
        assert results == {"sloth": {"value": 5}}
        assert pool.events.count("unit_timeout") >= 1
        assert pool.events.count("worker_restarted") >= 1
