"""Scheduler interface and the thread context it dispatches.

:class:`ThreadContext` carries both the trace-execution state the machine
owns (the thread's trace columns and a cursor into them, clock, phase
stack, retired instructions) and the dispatch state the scheduler owns
(current core, quantum budget, run-queue position).  Lock ownership is
the machine's ``lock_holder`` map alone.  The machine drives the event
loop and notifies the scheduler at every state transition, under every
policy; the scheduler decides placement and ordering, and a hook a
policy does not override is a no-op.

Event-flow contract between machine and scheduler::

    next_thread()        -> the dispatched thread with the smallest clock
                            (dispatching queued threads first), or None
    on_block(ctx)        -> ctx left RUNNABLE (barrier/lock); its core is
                            free from ctx.clock on
    on_unblock(ctx)      -> ctx is RUNNABLE again at ctx.clock; re-enters
                            the run queue
    on_done(ctx)         -> ctx finished its trace; frees its core
    on_charge(ctx, c)    -> ctx consumed c busy cycles (compute, an access
                            or a lock acquire; quantum accounting)
    on_phase_change(ctx) -> ctx pushed/popped a phase

Preemption and migration are decided at *operation boundaries*: trace ops
are atomic, so a quantum expires after the op that crossed it, and a
migrating thread moves between ops.  All policies are deterministic —
identical configs and programs produce identical schedules, which is what
lets scheduled results enter the content-hashed sweep caches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from repro.simx.config import MachineConfig
from repro.simx.stats import SchedStats

__all__ = [
    "Scheduler",
    "ThreadContext",
    "ThreadState",
    "WaitCharge",
    "build_scheduler",
]


class ThreadState(Enum):
    RUNNABLE = "runnable"
    AT_BARRIER = "barrier"
    WAIT_LOCK = "lock"
    DONE = "done"


@dataclass
class ThreadContext:
    """Execution and dispatch bookkeeping for one thread."""

    tid: int
    #: the thread's trace columns as lists (see
    #: :meth:`repro.simx.trace.ThreadTrace.columns`); ``ip`` indexes the
    #: next op
    kinds: list[int]
    args: list[int]
    labels: tuple[str, ...]
    ip: int = 0
    clock: int = 0
    state: ThreadState = ThreadState.RUNNABLE
    phase_stack: list[str] = field(default_factory=list)
    #: instructions retired (a compute burst's count, 1 per access),
    #: whichever cores the thread ran on
    instructions: int = 0
    # ── scheduler-owned state ────────────────────────────────────────────
    #: core currently (or most recently) hosting the thread; None before
    #: the first dispatch.  Affinity and migration cost key off this.
    core: "int | None" = None
    #: currently placed on a core (dispatched threads are always RUNNABLE)
    dispatched: bool = False
    #: busy cycles left in the current quantum slice (None = unlimited)
    quantum_left: "int | None" = None
    #: simulated time the thread last (re)entered the run queue
    ready_at: int = 0
    #: tie-break for threads queued at the same simulated time
    ready_seq: int = 0

    def current_phase(self) -> str:
        return self.phase_stack[-1] if self.phase_stack else "(unattributed)"


#: callback the machine hands to :meth:`Scheduler.attach`; charges queue
#: delay to the thread's current phase as wait time
WaitCharge = Callable[[ThreadContext, int], None]


class Scheduler:
    """Dispatch policy: which runnable thread advances next, on which core."""

    name = "?"

    def __init__(self, config: MachineConfig):
        self.config = config
        self.stats = SchedStats(scheduler=self.name)

    def attach(
        self, threads: "list[ThreadContext]", charge_wait: WaitCharge
    ) -> None:
        raise NotImplementedError

    def next_thread(self) -> "ThreadContext | None":
        """The thread to advance next, or None when nothing is runnable."""
        raise NotImplementedError

    def on_block(self, ctx: ThreadContext) -> None:
        pass

    def on_unblock(self, ctx: ThreadContext) -> None:
        pass

    def on_done(self, ctx: ThreadContext) -> None:
        pass

    def on_charge(self, ctx: ThreadContext, cycles: int) -> None:
        pass

    def on_phase_change(self, ctx: ThreadContext) -> None:
        pass


def build_scheduler(config: MachineConfig) -> Scheduler:
    """Instantiate the scheduler named by ``config.scheduler``."""
    from repro.simx.sched.acmp import AcmpScheduler
    from repro.simx.sched.pinned import PinnedScheduler
    from repro.simx.sched.roundrobin import RoundRobinScheduler

    if config.scheduler == "pinned":
        return PinnedScheduler(config)
    if config.scheduler == "round-robin":
        return RoundRobinScheduler(config)
    if config.scheduler == "acmp":
        return AcmpScheduler(config)
    raise ValueError(f"unknown scheduler {config.scheduler!r}")
