"""Pluggable thread-dispatch layer for the simulated CMP.

The machine (:mod:`repro.simx.machine`) executes trace operations; *which*
runnable thread advances next, and on *which* core, is delegated to a
:class:`Scheduler`.  Three policies ship:

* :class:`PinnedScheduler` — the paper's one-thread-per-core model and the
  pre-refactor dispatch rule, kept cycle-identical (always advance the
  runnable thread with the smallest local clock; thread *i* owns core *i*).
* :class:`RoundRobinScheduler` — time-multiplexing over a FIFO run queue
  with per-slice ``quantum`` preemption, last-core affinity, and a
  configurable ``migration_cost``; allows oversubscription
  (``n_threads > n_cores``).
* :class:`AcmpScheduler` — round-robin plus a big-core ownership policy for
  asymmetric machines (who gets core 0 during the serial/merge phases).

Every policy runs through the same op-at-a-time loop: the machine charges
each op's cycles in one place and calls every scheduler hook under every
policy (a hook a policy does not override is a no-op).  The batch engine
(:mod:`repro.simx.batch`) interleaves work without consulting a
scheduler, so it is only safe under pinned dispatch: its one gate,
:func:`~repro.simx.batch.supports_batch_path`, sends any
time-multiplexing policy to the reference engine (differentially tested
in ``tests/sched/``).
"""

from __future__ import annotations

from repro.simx.sched.acmp import SERIAL_PHASES, AcmpScheduler
from repro.simx.sched.base import (
    Scheduler,
    ThreadContext,
    ThreadState,
    build_scheduler,
)
from repro.simx.sched.pinned import PinnedScheduler
from repro.simx.sched.roundrobin import RoundRobinScheduler

__all__ = [
    "AcmpScheduler",
    "PinnedScheduler",
    "RoundRobinScheduler",
    "SERIAL_PHASES",
    "Scheduler",
    "ThreadContext",
    "ThreadState",
    "build_scheduler",
]
