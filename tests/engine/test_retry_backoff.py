"""Retry/backoff contract of the worker pool.

A unit that deterministically kills every worker that touches it must
surface a *structured* :class:`UnitFailure` — key, label, reason — in
bounded time, and the exponential backoff between its attempts must be
capped by ``max_backoff`` so a flaky unit can never push the retry
schedule toward unbounded waits.
"""

import os
import signal
import time

import pytest

from repro.engine.pool import UnitFailure
from repro.engine.remote import RemotePool
from repro.engine.units import WorkUnit, register_executor


def _suicide(spec):
    os.kill(os.getpid(), signal.SIGKILL)


register_executor("t-backoff-suicide", _suicide)


def _doomed(key="doomed"):
    return WorkUnit(kind="t-backoff-suicide", key=key, spec=(), label=f"unit:{key}")


class TestRetryBackoff:
    def test_failure_is_structured_not_a_hang(self):
        """Exhausting retries raises UnitFailure carrying key/label/reason."""
        started = time.monotonic()
        with RemotePool(local_workers=2, lease_timeout=30.0, max_retries=2,
                        backoff=0.01, max_backoff=0.05) as pool:
            with pytest.raises(UnitFailure) as exc_info:
                pool.run([_doomed()])
        elapsed = time.monotonic() - started
        failure = exc_info.value
        assert failure.key == "doomed"
        assert failure.label == "unit:doomed"
        assert "retry budget" in failure.reason
        assert "3 time(s)" in failure.reason  # initial attempt + 2 retries
        # 2 capped backoffs (<= 0.05 s each) plus worker respawns: the
        # whole thing must resolve promptly, not sit in a poll loop
        assert elapsed < 20.0
        assert pool.events.count("worker_crashed") == 3
        assert pool.events.count("unit_retry") == 2

    def test_backoff_delays_are_capped(self):
        """Every scheduled retry delay obeys min(backoff * 2^k, max_backoff)."""
        with RemotePool(local_workers=2, lease_timeout=30.0, max_retries=4,
                        backoff=0.02, max_backoff=0.05) as pool:
            with pytest.raises(UnitFailure):
                pool.run([_doomed()])
        retries = [e for e in pool.events.events if e.kind == "unit_retry"]
        assert len(retries) == 4
        delays = [e.data["delay_s"] for e in retries]
        # uncapped would be 0.02, 0.04, 0.08, 0.16; the cap bites at 0.05
        assert delays == [0.02, 0.04, 0.05, 0.05]
        assert all(d <= pool.max_backoff for d in delays)

    def test_max_backoff_never_below_base_backoff(self):
        pool = RemotePool(local_workers=1, backoff=0.5, max_backoff=0.1)
        assert pool.max_backoff == 0.5

    def test_other_units_complete_despite_doomed_sibling(self):
        """The structured failure aborts the batch, but only after the
        doomed unit truly exhausted its budget — with retries disabled the
        first crash surfaces immediately."""
        started = time.monotonic()
        with RemotePool(local_workers=2, lease_timeout=30.0, max_retries=0,
                        backoff=0.01, max_backoff=0.05) as pool:
            with pytest.raises(UnitFailure, match="retry budget 0"):
                pool.run([_doomed()])
        assert time.monotonic() - started < 10.0
        assert pool.events.count("unit_retry") == 0
