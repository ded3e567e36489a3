"""One thread per core, no time-multiplexing.

This is the paper's execution model and the pre-refactor dispatch rule,
preserved cycle-identically: thread *i* is pinned to core *i* for the whole
run, and the event loop always advances the runnable thread with the
smallest local clock (ties to the lowest thread id).  Nothing is ever
preempted, queued, or migrated, so every :class:`~repro.simx.stats.SchedStats`
counter stays zero and the batch engine remains safe
(:func:`~repro.simx.batch.supports_batch_path`).
"""

from __future__ import annotations

from repro.simx.sched.base import Scheduler, ThreadContext, ThreadState, WaitCharge

__all__ = ["PinnedScheduler"]

_RUNNABLE = ThreadState.RUNNABLE


class PinnedScheduler(Scheduler):
    name = "pinned"

    def attach(
        self, threads: "list[ThreadContext]", charge_wait: WaitCharge
    ) -> None:
        self._threads = threads
        for ctx in threads:
            ctx.core = ctx.tid
            ctx.dispatched = True

    def next_thread(self) -> "ThreadContext | None":
        # threads are in tid order, so the strict < keeps the lowest tid
        # among equal clocks
        best = None
        for t in self._threads:
            if t.state is _RUNNABLE and (best is None or t.clock < best.clock):
                best = t
        return best
