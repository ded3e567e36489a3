"""Time-multiplexing round-robin dispatch over a FIFO run queue.

Threads are dispatched onto cores from a run queue ordered by the
simulated time they became ready (FIFO in *simulated* time, not in event
processing order).  A dispatched thread runs until it blocks, finishes, or
— when ``config.quantum`` is set — exhausts its slice while another ready
thread is waiting, in which case it is preempted at the next operation
boundary and requeued.  Dispatch prefers the thread's previous core when
that core is free (cache affinity); landing anywhere else charges
``config.migration_cost`` cycles and counts a migration.  Queue delay and
migration cost are charged to the thread's current phase as wait time and
accumulated in ``SchedStats.involuntary_wait_cycles``.

Conservative-dispatch rule
--------------------------
The machine is a conservative discrete-event simulation: future wakeups
are only created by currently dispatched threads, so every future
run-queue arrival happens at or after the *horizon* — the minimum clock
among dispatched threads.  A queued thread is therefore only committed to
a core once its start time is ``<= horizon`` (no later arrival could have
claimed the core earlier); with nothing dispatched the horizon is infinite
and the earliest-ready thread is placed immediately.  This keeps the
schedule deterministic and independent of event processing order.

Parity guarantee (enforced by ``tests/sched/``): with
``n_threads <= n_cores`` the affinity rule gives every thread its own
core, the queue never holds a ready thread while a core is occupied, and
the schedule — and every cycle count — is identical to
:class:`~repro.simx.sched.pinned.PinnedScheduler`.
"""

from __future__ import annotations

from repro.simx.config import MachineConfig
from repro.simx.sched.base import Scheduler, ThreadContext, WaitCharge

__all__ = ["RoundRobinScheduler"]

_INF = float("inf")


class RoundRobinScheduler(Scheduler):
    name = "round-robin"

    def __init__(self, config: MachineConfig):
        super().__init__(config)
        self.quantum = config.quantum
        self.migration_cost = config.migration_cost
        self.n_cores = config.n_cores
        #: free cores: id -> simulated time the core became free
        self._free: dict[int, int] = {}
        #: runnable threads not currently placed on a core
        self._queue: list[ThreadContext] = []
        self._seq = 0

    def attach(
        self, threads: "list[ThreadContext]", charge_wait: WaitCharge
    ) -> None:
        self._threads = threads
        self._charge_wait = charge_wait
        self._free = {core: 0 for core in range(self.n_cores)}
        self._queue = []
        for ctx in threads:
            self._enqueue(ctx)

    # ── run-queue plumbing ────────────────────────────────────────────────
    def _enqueue(self, ctx: ThreadContext) -> None:
        ctx.ready_at = ctx.clock
        ctx.ready_seq = self._seq
        self._seq += 1
        ctx.dispatched = False
        self._queue.append(ctx)

    def _release_core(self, ctx: ThreadContext) -> None:
        if ctx.dispatched:
            ctx.dispatched = False
            self._free[ctx.core] = ctx.clock

    def _preempt(self, ctx: ThreadContext) -> None:
        self.stats.preemptions += 1
        self._release_core(ctx)
        self._enqueue(ctx)

    # ── policy hooks (specialised by AcmpScheduler) ───────────────────────
    def _queue_order(self, ctx: ThreadContext) -> tuple:
        return (ctx.ready_at, ctx.ready_seq)

    def _pick_core(self, ctx: ThreadContext) -> "tuple[int, int]":
        """(core, freed_at) to dispatch ``ctx`` on.  Affinity first, else
        earliest-freed; must return a core whenever one is free."""
        free = self._free
        last = ctx.core
        if last is not None and last in free:
            return last, free[last]
        core = min(free, key=lambda c: (free[c], c))
        return core, free[core]

    # ── dispatch ──────────────────────────────────────────────────────────
    def _start_time(self, ctx: ThreadContext, core: int, freed_at: int) -> int:
        start = max(ctx.clock, freed_at)
        if ctx.core is not None and core != ctx.core:
            start += self.migration_cost
        return start

    def _dispatch(self) -> None:
        while self._queue and self._free:
            horizon = min(
                (t.clock for t in self._threads if t.dispatched),
                default=_INF,
            )
            head = min(self._queue, key=self._queue_order)
            core, freed_at = self._pick_core(head)
            start = self._start_time(head, core, freed_at)
            if start > horizon:
                # every future unblock lands at >= horizon, so a thread
                # that is not queued yet could still claim this core
                # before `start`: defer until the horizon catches up
                # (FIFO — no later-queued thread may overtake the head)
                return
            self._place(head, core, start)

    def _place(self, ctx: ThreadContext, core: int, start: int) -> None:
        self._queue.remove(ctx)
        del self._free[core]
        if ctx.core is not None and core != ctx.core:
            self.stats.migrations += 1
        wait = start - ctx.clock
        if wait:
            self.stats.involuntary_wait_cycles += wait
            self._charge_wait(ctx, wait)
            ctx.clock = start
        ctx.core = core
        ctx.dispatched = True
        ctx.quantum_left = self.quantum
        self.stats.dispatches += 1

    # ── Scheduler interface ───────────────────────────────────────────────
    def next_thread(self) -> "ThreadContext | None":
        if self._queue:
            self._dispatch()
        best = None
        for t in self._threads:
            if t.dispatched and (best is None or t.clock < best.clock):
                best = t
        return best

    def on_block(self, ctx: ThreadContext) -> None:
        self._release_core(ctx)

    def on_done(self, ctx: ThreadContext) -> None:
        self._release_core(ctx)

    def on_unblock(self, ctx: ThreadContext) -> None:
        self._enqueue(ctx)

    def on_charge(self, ctx: ThreadContext, cycles: int) -> None:
        if self.quantum is None:
            return
        left = ctx.quantum_left - cycles
        if left > 0:
            ctx.quantum_left = left
            return
        # slice expired at ctx.clock: yield only when a ready thread waits
        if any(t.ready_at <= ctx.clock for t in self._queue):
            self._preempt(ctx)
        else:
            ctx.quantum_left = self.quantum
