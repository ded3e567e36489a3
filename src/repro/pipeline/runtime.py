"""Unit resolution: the one execution substrate every experiment shares.

:func:`resolve_units` turns declared work units into payloads through the
same tier order for every unit kind:

1. the in-process memo (``unit.key`` -> payload);
2. the on-disk :class:`~repro.experiments.store.SweepStore` — for
   disk-cacheable kinds only (``WorkUnit.cacheable``); a stored
   breakdown payload that does not decode reads as a miss;
3. the ambient engine session
   (:func:`repro.engine.scheduler.current_session`), when one is
   installed — misses run on the worker pool (local processes, or remote
   ``repro worker`` processes when the session listens via
   :class:`~repro.engine.remote.RemotePool` — the tier order is
   backend-agnostic), journaled write-ahead, and parallel resolution
   stays byte-identical to serial because callers rebuild outputs in
   their own iteration order;
4. inline execution in this process, when no session is installed.

:func:`cache_get` / :func:`cache_put` are the scheduler hooks
:func:`repro.engine.precompute` uses to warm every tier for *any* unit
kind — the piece that makes ``runall``'s single cross-experiment
precompute pass possible.

The disk tier defaults to ``.repro-cache/sweeps`` under the current
directory; override with the ``REPRO_SWEEP_CACHE_DIR`` environment
variable, disable with ``REPRO_SWEEP_CACHE=off`` (or per-process via
:func:`set_disk_store`).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable

from repro import obs
from repro.engine import scheduler
from repro.engine import units as engine_units
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
    "cache_get",
    "cache_put",
    "clear_memo",
    "memo_info",
    "set_disk_store",
    "get_disk_store",
]

#: unit.key -> payload, for every unit kind
_memo: "dict[str, dict]" = {}
_stats = {"memory_hits": 0, "disk_hits": 0, "misses": 0, "executed": 0}

_CACHE_LOOKUPS = obs.counter(
    "sweep_cache_lookups_total",
    "unit cache lookups by tier and outcome",
    labels=("tier", "result"),
)

#: _stats key → (tier, result) label pair on ``sweep_cache_lookups_total``
_LOOKUP_LABELS = {
    "memory_hits": ("memory", "hit"),
    "disk_hits": ("disk", "hit"),
    "misses": ("all", "miss"),
}

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


def _record_lookup(stat: str) -> None:
    _stats[stat] += 1
    tier, result = _LOOKUP_LABELS[stat]
    _CACHE_LOOKUPS.inc(tier=tier, result=result)


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
    """Scheduler hook: look one unit up in the memo and (if cacheable)
    the disk store."""
    hit = _memo.get(unit.key)
    if hit is not None:
        _record_lookup("memory_hits")
        return hit
    if unit.cacheable:
        disk = get_disk_store()
        if disk is not None:
            payload = disk.get(unit.key)
            if payload is not None and _decodes(unit, payload):
                _record_lookup("disk_hits")
                _memo[unit.key] = payload
                return payload
    _record_lookup("misses")
    return None


def cache_put(unit: WorkUnit, payload: dict) -> None:
    """Scheduler hook: write a fresh result into every applicable tier."""
    _memo[unit.key] = payload
    if unit.cacheable:
        disk = get_disk_store()
        if disk is not None:
            disk.put(unit.key, payload)


def resolve_units(units: Iterable[WorkUnit]) -> "dict[str, dict]":
    """Resolve units to ``{key: payload}`` (cache -> engine -> inline).

    With an ambient engine session installed (``repro.engine.session``,
    the CLI's ``--parallel``/``--run-id``), misses execute across the
    session's pool and settle through its journal; otherwise they run
    inline, hitting the same caches — results are identical either way.
    """
    units = list(units)
    sess = scheduler.current_session()
    if sess is not None:
        return sess.run_units(units, cache_get=cache_get, cache_put=cache_put)
    out: "dict[str, dict]" = {}
    for unit in units:
        if unit.key in out:
            continue
        payload = cache_get(unit)
        if payload is None:
            payload = engine_units.execute(unit.kind, unit.spec)
            _stats["executed"] += 1
            cache_put(unit, payload)
        out[unit.key] = payload
    return out


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
    resolved like any other units, so they are memoised, disk-cached and
    — with an engine session installed — run on its worker pool.
    """
    thread_counts = list(thread_counts)
    units = sim_sweep_units(workload, thread_counts, n_cores=n_cores,
                            mem_scale=mem_scale, config=config)
    payloads = resolve_units(units)
    return {p: breakdown_from_payload(payloads[u.key])
            for p, u in zip(thread_counts, units)}


def clear_memo() -> None:
    """Drop the memo and restart its counters (the disk tier is kept;
    clear it with ``get_disk_store().clear()``)."""
    _memo.clear()
    for k in _stats:
        _stats[k] = 0


def memo_info() -> dict:
    """Hit/miss counters and tier sizes (``repro cache info``).

    When the ambient engine session carries a run journal (a ``--run-id``
    / ``--resume`` run), the journal tier is reported too — its entries
    are consulted *ahead of* the memo and the disk store.
    """
    disk = get_disk_store()
    lookups = _stats["memory_hits"] + _stats["disk_hits"] + _stats["misses"]
    info = {
        **_stats,
        "lookups": lookups,
        "hit_rate": (_stats["memory_hits"] + _stats["disk_hits"]) / lookups
        if lookups else 0.0,
        "memory_entries": len(_memo),
        "disk_entries": len(disk) if disk is not None else 0,
        "disk_path": str(disk.root) if disk is not None else None,
    }
    sess = scheduler.current_session()
    journal = getattr(sess, "journal", None)
    if journal is not None:
        info["journal_entries"] = len(journal)
        info["journal_path"] = str(journal.path)
        info["journal_hits"] = sess.stats.get("journal_hits", 0)
    return info
