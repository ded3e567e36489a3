"""``repro.engine`` — parallel experiment orchestration.

A work-unit scheduler plus a fault-tolerant worker pool that
parallelizes experiment execution end to end while keeping reports
**byte-identical** to serial runs (see ``docs/engine.md``):

* experiments declare their work as content-hashed
  :class:`~repro.engine.units.WorkUnit`\\ s (the hash doubles as the
  on-disk cache key);
* the :class:`~repro.engine.scheduler.EngineSession` deduplicates units
  within a batch and against every cache tier, dispatches the misses
  across N worker processes, and merges results deterministically;
* the :class:`~repro.engine.remote.RemotePool` leases units to its
  workers and survives their deaths — a lease deadline per unit,
  bounded retry with backoff, and a killed worker loses only its one
  lease — degrading to in-process serial execution
  (:class:`~repro.engine.pool.SerialPool`) when workers cannot start;
* everything observable flows through an
  :class:`~repro.engine.events.EventLog` (progress, ETA, cache hits,
  crashes), mirrored to ``repro.util.logging`` and optionally to JSONL;
* runs are **crash-safe and resumable**: with a ``run_id``, every
  settled unit is write-ahead journaled
  (:class:`~repro.engine.journal.RunJournal`), SIGINT/SIGTERM drains
  gracefully (:class:`~repro.engine.pool.RunInterrupted` carries a
  resume hint), and ``--resume`` replays the journal as a cache tier
  ahead of the sweep store — proven by the fault-injection tests, which
  SIGKILL real runs and resume them;
* execution is **location-transparent**: one lease protocol, with
  journal-before-acknowledge durability and at-most-once settle, runs
  over two transports — ``--parallel N`` starts N local worker
  subprocesses on private socketpairs, and ``--listen`` accepts
  ``repro worker --connect`` processes over TCP — with the same
  byte-identity and resume guarantees on one machine or many.

Typical use is via the CLI (``repro run <id> --parallel N``,
``repro runall``) or::

    from repro import engine
    from repro.experiments.registry import run_experiments

    with engine.session(n_workers=4):   # one batch, the shared sweep once
        for report in run_experiments([("table2", {"scale": 0.15}),
                                       ("fig2", {"scale": 0.15})]):
            print(report.render())
"""

from repro.engine.events import EngineEvent, EventLog
from repro.engine.journal import (
    RunJournal,
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
    default_workers,
)
from repro.engine.scheduler import (
    EngineSession,
    current_session,
    drain_on_signal,
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
    "current_session",
    "default_workers",
    "drain_on_signal",
    "read_manifest",
    "register_executor",
    "resolve_run_dir",
    "run_path",
    "runs_root",
    "session",
    "write_manifest",
]
