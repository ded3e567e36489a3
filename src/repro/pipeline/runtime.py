"""Unit resolution: the one execution substrate every experiment shares.

:func:`resolve_units` hands every batch to
:meth:`~repro.engine.scheduler.EngineSession.run_units`: the ambient
session (:func:`repro.engine.scheduler.current_session`) when one is
installed, else a serial session of its own for the call.  The session
settles each unit through the same tier order for every unit kind:

1. the session's run journal, when it has one (``--run-id`` /
   ``--resume``);
2. the on-disk :class:`~repro.experiments.store.SweepStore`; a stored
   breakdown payload that does not decode reads as a miss;
3. the session's pool — in this process for one worker, else local
   worker processes or remote ``repro worker`` processes
   (:class:`~repro.engine.remote.RemotePool`; the tier order is
   backend-agnostic).  Parallel resolution stays byte-identical to
   serial because callers rebuild outputs in their own iteration order.

There is no in-process payload tier, so a long-lived process such as
``repro serve`` holds no payloads between calls.  :func:`cache_get` /
:func:`cache_put` are the scheduler hooks for the disk tier.  The
session's ``stats`` and its ``journal_hit`` / ``cache_hit`` /
``unit_done`` events are the one account of which tier settled a unit.

The disk tier defaults to ``.repro-cache/sweeps`` under the current
directory; override with the ``REPRO_SWEEP_CACHE_DIR`` environment
variable, disable with ``REPRO_SWEEP_CACHE=off`` (or per-process via
:func:`set_disk_store`).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable

from repro.engine import scheduler
from repro.engine.pool import UnitFailure
from repro.engine.units import WorkUnit
from repro.experiments.store import SweepStore
from repro.pipeline.builders import (
    BREAKDOWN_KINDS,
    breakdown_from_payload,
    sim_sweep_units,
)
from repro.workloads.instrument import PhaseBreakdown

__all__ = [
    "resolve_units",
    "simulate_breakdowns",
    "sweep_breakdowns",
    "cache_get",
    "cache_put",
    "set_disk_store",
    "get_disk_store",
]

_DISK_DEFAULT = object()  # sentinel: resolve from the environment
_disk_store: "SweepStore | None | object" = _DISK_DEFAULT


def set_disk_store(store: "SweepStore | str | Path | None") -> None:
    """Point the disk tier somewhere else, or disable it with ``None``.

    Accepts a :class:`~repro.experiments.store.SweepStore`, a directory
    path, or ``None``.  Tests use this to isolate themselves in a tmp
    directory; the CLI's ``--no-sweep-cache`` flag passes ``None``.
    """
    global _disk_store
    if isinstance(store, (str, Path)):
        store = SweepStore(store)
    _disk_store = store


def get_disk_store() -> "SweepStore | None":
    """The resolved disk tier (None when disabled)."""
    global _disk_store
    if _disk_store is _DISK_DEFAULT:
        if os.environ.get("REPRO_SWEEP_CACHE", "").lower() in ("0", "off", "no", "false"):
            _disk_store = None
        else:
            root = os.environ.get(
                "REPRO_SWEEP_CACHE_DIR", str(Path(".repro-cache") / "sweeps")
            )
            _disk_store = SweepStore(root)
    return _disk_store


def _decodes(unit: WorkUnit, payload: dict) -> bool:
    """Whether a stored payload is usable for ``unit``'s kind."""
    if unit.kind not in BREAKDOWN_KINDS:
        return True
    try:
        breakdown_from_payload(payload)
    except ValueError:
        return False
    return True


def cache_get(unit: WorkUnit) -> "dict | None":
    """Scheduler hook: look one unit up in the disk store."""
    disk = get_disk_store()
    if disk is not None:
        payload = disk.get(unit.key)
        if payload is not None and _decodes(unit, payload):
            return payload
    return None


def cache_put(unit: WorkUnit, payload: dict) -> None:
    """Scheduler hook: write a fresh result into the disk store."""
    disk = get_disk_store()
    if disk is not None:
        disk.put(unit.key, payload)


def resolve_units(units: Iterable[WorkUnit]) -> "dict[str, dict]":
    """Resolve units to ``{key: payload}`` through an engine session.

    The ambient session (``repro.engine.session``, opened by every CLI
    run) executes misses on its pool and settles them through its
    journal.  With none installed, a serial session of the call's own
    executes them in this process; an executor's exception then propagates
    as itself rather than wrapped in :class:`~repro.engine.pool
    .UnitFailure`.  Results are identical either way.
    """
    sess = scheduler.current_session()
    if sess is not None:
        return sess.run_units(units, cache_get=cache_get, cache_put=cache_put)
    with scheduler.EngineSession(1) as sess:
        try:
            payloads = sess.run_units(units, cache_get=cache_get,
                                      cache_put=cache_put)
        except UnitFailure as exc:
            if exc.__cause__ is None:
                raise
            raise exc.__cause__ from None
    return payloads


def simulate_breakdowns(
    workload,
    thread_counts: Iterable[int] = (1, 2, 4, 8, 16),
    n_cores: int = 16,
    mem_scale: int = 2,
    config=None,
) -> "dict[int, PhaseBreakdown]":
    """Run ``workload`` on the simulator per thread count and return the
    per-phase breakdowns.

    ``config`` overrides the machine (default: ``MachineConfig.baseline``
    with ``n_cores`` cores).  The points are :func:`sim_sweep_units`
    resolved like any other units, so they are disk-cached and
    — with a parallel engine session installed — run on its worker pool.
    """
    thread_counts = list(thread_counts)
    units = sim_sweep_units(workload, thread_counts, n_cores=n_cores,
                            mem_scale=mem_scale, config=config)
    payloads = resolve_units(units)
    return {p: breakdown_from_payload(payloads[u.key])
            for p, u in zip(thread_counts, units)}


def sweep_breakdowns(
    units: "list[WorkUnit]", payloads: "dict[str, dict]", size: int
) -> "list[tuple[object, dict[int, PhaseBreakdown]]]":
    """Decode resolved sweeps into ``(workload, {p: PhaseBreakdown})``
    pairs, one per sweep.

    ``units`` are consecutive sweeps of ``size`` units each, in the order
    a declare function lists them: sweep-point or hardware-model units of
    one workload and machine, whose specs carry the workload first and
    the thread count second.
    """
    return [
        (units[i].spec[0],
         {u.spec[1]: breakdown_from_payload(payloads[u.key])
          for u in units[i:i + size]})
        for i in range(0, len(units), size)
    ]
