"""``repro.engine`` — parallel experiment orchestration.

A work-unit scheduler plus a fault-tolerant multiprocess worker pool
that parallelizes experiment execution end to end while keeping reports
**byte-identical** to serial runs (see ``docs/engine.md``):

* experiments declare their work as content-hashed
  :class:`~repro.engine.units.WorkUnit`\\ s (the hash doubles as the
  on-disk cache key);
* the :class:`~repro.engine.scheduler.EngineSession` deduplicates units
  within a batch and against every cache tier, dispatches the misses
  across N worker processes, and merges results deterministically;
* the :class:`~repro.engine.pool.WorkerPool` survives worker deaths —
  per-unit timeouts, bounded retry with backoff, and a killed worker
  loses only its single in-flight unit — degrading to in-process serial
  execution when ``multiprocessing`` is unavailable;
* everything observable flows through an
  :class:`~repro.engine.events.EventLog` (progress, ETA, cache hits,
  crashes), mirrored to ``repro.util.logging`` and optionally to JSONL;
* runs are **crash-safe and resumable**: with a ``run_id``, every
  settled unit is write-ahead journaled
  (:class:`~repro.engine.journal.RunJournal`), SIGINT/SIGTERM drains
  gracefully (:class:`~repro.engine.pool.RunInterrupted` carries a
  resume hint), and ``--resume`` replays the journal as a cache tier
  ahead of the sweep store — proven by the fault-injection harness in
  :mod:`repro.engine.chaos`;
* execution is **location-transparent**: ``--listen`` swaps the process
  pool for the :class:`~repro.engine.remote.RemotePool`, whose workers
  (``repro worker --connect``) lease units over a socket protocol with
  journal-before-acknowledge durability and at-most-once settle — the
  same byte-identity and resume guarantees across machines.

Typical use is via the CLI (``repro run <id> --parallel N``,
``repro runall``) or::

    from repro import engine

    with engine.session(n_workers=4) as sess:
        engine.precompute(sess, ["table2", "fig2"], {"scale": 0.15})
        report = run_experiment("table2")   # hot caches, serial semantics
"""

from repro.engine.events import EngineEvent, EventLog
from repro.engine.journal import (
    RunJournal,
    new_run_id,
    read_manifest,
    resolve_run_dir,
    run_path,
    runs_root,
    write_manifest,
)
from repro.engine.pool import (
    EngineError,
    PoolUnavailable,
    RunInterrupted,
    SerialPool,
    UnitFailure,
    WorkerPool,
    default_workers,
)
from repro.engine.scheduler import (
    EngineSession,
    current_session,
    drain_on_signal,
    precompute,
    session,
)
from repro.engine.units import WorkUnit, register_executor

__all__ = [
    "EngineError",
    "EngineEvent",
    "EngineSession",
    "EventLog",
    "PoolUnavailable",
    "RunInterrupted",
    "RunJournal",
    "SerialPool",
    "UnitFailure",
    "WorkUnit",
    "WorkerPool",
    "current_session",
    "default_workers",
    "drain_on_signal",
    "new_run_id",
    "precompute",
    "read_manifest",
    "register_executor",
    "resolve_run_dir",
    "run_path",
    "runs_root",
    "session",
    "write_manifest",
]
