"""The pool interface, its serial implementation, and shared bookkeeping.

A pool runs work units: ``run(units, on_result=...)`` returns
``{key: payload}`` and calls ``on_result`` once per settled unit.  Two
implementations exist:

* :class:`~repro.engine.remote.RemotePool` — the worker pool.  It leases
  units to worker processes over one protocol and two transports: N
  local worker subprocesses on private socketpairs (``--parallel N``)
  and remote ``repro worker`` processes over TCP (``--listen``).  A dead
  or stalled worker loses only its lease, which is re-issued with
  bounded exponential backoff.
* :class:`SerialPool` — same contract, current process, no dependencies.
  The scheduler degrades to it when workers cannot start
  (:class:`PoolUnavailable`) and when only one worker is requested.

Failure taxonomy: worker *deaths* are environmental, so they are
retried; executor *exceptions* are deterministic, so they travel back as
tracebacks and fail fast — retrying a ``ValueError`` would just raise it
again, slower.

Work units are assumed **pure** (their content hash is their identity),
which is what makes retries and duplicate late results safe: executing a
unit twice yields the same payload, so the first result to arrive wins
and every later one is dropped.
"""

from __future__ import annotations

import os
import time
import traceback
from typing import Callable, Iterable

from repro import obs
from repro.engine.events import EventLog
from repro.engine.units import WorkUnit, execute

__all__ = [
    "EngineError",
    "UnitFailure",
    "PoolUnavailable",
    "RunInterrupted",
    "SerialPool",
    "default_workers",
]

#: parent polling granularity; bounds crash/timeout detection latency
_POLL_S = 0.05

# ── observability ─────────────────────────────────────────────────────────
_QUEUE_DEPTH = obs.gauge("engine_queue_depth",
                         "units not yet settled (ready + delayed + in flight)")
_UNIT_SECONDS = obs.histogram("engine_unit_seconds",
                              "dispatch-to-done wall seconds per unit",
                              labels=("pool",))


class EngineError(RuntimeError):
    """Base class for engine failures."""


class UnitFailure(EngineError):
    """A work unit could not be completed (exception or repeated crashes)."""

    def __init__(self, unit: WorkUnit, reason: str):
        self.key = unit.key
        self.label = unit.describe()
        self.reason = reason
        super().__init__(f"work unit {self.label} failed: {reason}")


class PoolUnavailable(EngineError):
    """Worker processes cannot be created on this platform/configuration."""


class RunInterrupted(EngineError):
    """A stop request (SIGINT/SIGTERM drain) ended the run early.

    Everything settled before the interrupt was already delivered through
    ``on_result`` — and therefore journaled, when the session has a run
    journal — so the run can be resumed; ``abandoned`` names the in-flight
    unit keys given up on, ``pending`` counts units never dispatched.
    """

    def __init__(self, reason: str, *, settled: int = 0,
                 abandoned: "tuple[str, ...] | list[str]" = (), pending: int = 0):
        self.reason = reason
        self.settled = settled
        self.abandoned = tuple(abandoned)
        self.pending = pending
        super().__init__(
            f"run interrupted ({reason}): {settled} unit(s) settled, "
            f"{len(self.abandoned)} abandoned in flight, {pending} pending"
        )


def default_workers() -> int:
    """Default pool width: one per CPU, capped (parent merges serially)."""
    return max(1, min(os.cpu_count() or 1, 8))


class SerialPool:
    """In-process execution with the pool interface (the degraded mode)."""

    n_workers = 1

    def __init__(self, events: "EventLog | None" = None,
                 should_stop: "Callable[[], bool] | None" = None):
        self.events = events if events is not None else EventLog()
        self.should_stop = should_stop

    def run(
        self,
        units: Iterable[WorkUnit],
        on_result: "Callable[[str, dict], None] | None" = None,
    ) -> dict[str, dict]:
        units = list(units)
        results: dict[str, dict] = {}
        for unit in units:
            if unit.key in results:
                continue
            if self.should_stop is not None and self.should_stop():
                pending = len({u.key for u in units} - results.keys())
                raise RunInterrupted("stop requested", settled=len(results),
                                     pending=pending)
            self.events.emit("unit_dispatched", key=unit.key,
                             label=unit.describe(), worker=-1, attempt=0)
            started = time.monotonic()
            try:
                payload = execute(unit.kind, unit.spec)
            except Exception as exc:
                # same report shape as the worker path: the full formatted
                # traceback, so a degraded (serial) run is equally debuggable
                raise UnitFailure(
                    unit, f"executor raised:\n{traceback.format_exc(limit=30)}"
                ) from exc
            results[unit.key] = payload
            _UNIT_SECONDS.observe(time.monotonic() - started, pool="serial")
            self.events.emit("unit_done", key=unit.key, label=unit.describe(),
                             worker=-1,
                             seconds=round(time.monotonic() - started, 4))
            if on_result is not None:
                on_result(unit.key, payload)
        return results

    def close(self) -> None:
        pass
