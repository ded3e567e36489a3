"""Big-core ownership policies for asymmetric CMPs.

On the paper's ACMP (``MachineConfig.asymmetric``) core 0 is the large
core; which thread owns it during the serial/merge phases decides how much
of the sqrt-area speedup actually reaches the reduction.  This scheduler
extends round-robin with a per-``config.acmp_policy`` placement rule:

``first-come``
    Core 0 is just another core — pure round-robin with affinity.  The big
    core goes to whichever thread is dispatched onto it first.
``reduction-owns-big``
    Threads inside a serial phase (:data:`SERIAL_PHASES`) jump the run
    queue, take core 0 whenever it is free, and *evict* a non-serial
    occupant at its next operation boundary.  Threads outside a serial
    phase avoid core 0 unless it is the only free core.
``migrate-on-phase``
    All of the above, plus proactive migration: a dispatched thread
    *entering* a serial phase on a small core vacates it and requeues
    (dispatch will prefer core 0, paying ``migration_cost``), and a thread
    *leaving* its serial phases while on core 0 vacates the big core for
    the next merge.

Eviction counts as a preemption; voluntary phase migrations count only as
the migration they cause.  With ``acmp_policy="first-come"`` this class is
behaviourally identical to :class:`~repro.simx.sched.roundrobin.RoundRobinScheduler`.
"""

from __future__ import annotations

from repro.simx.config import MachineConfig
from repro.simx.sched.base import ThreadContext
from repro.simx.sched.roundrobin import RoundRobinScheduler

__all__ = ["AcmpScheduler", "SERIAL_PHASES"]

#: phase names treated as "the serial section" for big-core ownership
SERIAL_PHASES = frozenset({"init", "serial", "reduction", "merge"})

#: the large core on an asymmetric machine (MachineConfig.asymmetric
#: places the rl-BCE core at index 0)
BIG_CORE = 0


def _in_serial_phase(ctx: ThreadContext) -> bool:
    return any(p in SERIAL_PHASES for p in ctx.phase_stack)


class AcmpScheduler(RoundRobinScheduler):
    name = "acmp"

    def __init__(self, config: MachineConfig):
        super().__init__(config)
        self.policy = config.acmp_policy

    # ── placement policy ──────────────────────────────────────────────────
    def _queue_order(self, ctx: ThreadContext) -> tuple:
        if self.policy == "first-come":
            return super()._queue_order(ctx)
        # serial-phase threads jump the queue (the merge must not starve
        # behind background work — the priority-inversion remedy)
        return (
            0 if _in_serial_phase(ctx) else 1,
            ctx.ready_at,
            ctx.ready_seq,
        )

    def _pick_core(self, ctx: ThreadContext) -> "tuple[int, int]":
        if self.policy == "first-come":
            return super()._pick_core(ctx)
        free = self._free
        if _in_serial_phase(ctx):
            if BIG_CORE in free:
                return BIG_CORE, free[BIG_CORE]
            return super()._pick_core(ctx)
        # outside serial phases keep the big core available for the merge
        small = [c for c in free if c != BIG_CORE]
        if not small:
            return super()._pick_core(ctx)
        last = ctx.core
        if last is not None and last in free and last != BIG_CORE:
            return last, free[last]
        core = min(small, key=lambda c: (free[c], c))
        return core, free[core]

    # ── eviction and phase migration ──────────────────────────────────────
    def on_charge(self, ctx: ThreadContext, cycles: int) -> None:
        if (
            self.policy != "first-come"
            and ctx.core == BIG_CORE
            and not _in_serial_phase(ctx)
            and any(
                _in_serial_phase(t) and t.ready_at <= ctx.clock
                for t in self._queue
            )
        ):
            # a merge thread is ready and the big core is squatted on:
            # evict the occupant at this operation boundary
            self._preempt(ctx)
            return
        super().on_charge(ctx, cycles)

    def on_phase_change(self, ctx: ThreadContext) -> None:
        if self.policy != "migrate-on-phase" or not ctx.dispatched:
            return
        serial = _in_serial_phase(ctx)
        if serial and ctx.core != BIG_CORE:
            # chase the big core: vacate and requeue (dispatch prefers
            # core 0 and charges migration_cost on the way there)
            self._release_core(ctx)
            self._enqueue(ctx)
        elif not serial and ctx.core == BIG_CORE:
            # leaving the merge: hand the big core back
            self._release_core(ctx)
            self._enqueue(ctx)
