"""The simulated CMP: a discrete-event engine over thread traces.

The machine advances one thread one operation at a time — a conservative
discrete-event simulation that yields a single global order consistent with
every thread's program order, so MESI state transitions happen in a
well-defined sequence.  *Which* thread advances next, and on which core,
is delegated to a pluggable scheduler (:mod:`repro.simx.sched`, selected
by ``MachineConfig.scheduler``): the default ``pinned`` policy is the
paper's one-thread-per-core model (always advance the runnable thread with
the smallest local clock), while ``round-robin`` and ``acmp`` time-multiplex
run queues over the cores with quantum preemption and migration, allowing
oversubscription (``n_threads > n_cores``).

That op-at-a-time loop is the *reference* engine; it steps over each
thread's trace columns (:meth:`repro.simx.trace.ThreadTrace.columns`) by
kind code, the input the batch engine reads too.  Whenever the
configuration allows it (:func:`repro.simx.batch.supports_batch_path`),
:meth:`Machine.run` executes on the lockstep batch engine instead, which
is cycle- and stats-identical by construction.

Synchronisation semantics:

* **barriers** block each arriving thread; when the last thread arrives the
  whole group resumes at ``max(arrival clocks) + barrier_release_latency``,
  with each thread's idle gap attributed to its current phase as wait time;
* **locks** are FIFO: a releasing thread hands the lock to the earliest
  waiter, which pays the acquire latency after its wait.

Deadlocks (a barrier some thread never reaches, a lock never released) are
detected and raised rather than hanging the simulation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro import obs
from repro.simx.batch import run_batch, supports_batch_path
from repro.simx.coherence import CoherenceController, CoherenceStats
from repro.simx.config import MachineConfig
from repro.simx.core_model import CoreModel
from repro.simx.sched import ThreadContext, ThreadState, build_scheduler
from repro.simx.stats import PhaseStats, SchedStats
from repro.simx.trace import (
    BARRIER,
    COMPUTE,
    LOAD,
    LOCK,
    PHASE_BEGIN,
    PHASE_END,
    STORE,
    TraceProgram,
)

__all__ = ["Machine", "SimulationResult", "DeadlockError", "TraceError"]

# ── observability (recorded once per run; see docs/observability.md) ──────
_RUNS = obs.counter("simx_runs_total", "simulator runs", labels=("engine",))
_OPS = obs.counter("simx_ops_total", "trace operations executed")
_FUSED_OPS = obs.counter("simx_fused_ops_total",
                         "operations executed inside multi-op batch segments")
_BURSTS = obs.counter("simx_bursts_total", "multi-op batch segments compiled")
_FALLBACKS = obs.counter("simx_burst_fallbacks_total",
                         "batch segments parked on an eviction hazard")
_CYCLES = obs.counter("simx_cycles_total", "simulated cycles")
_INSTRUCTIONS = obs.counter("simx_instructions_total",
                            "simulated instructions retired")
_PHASE_BUSY = obs.counter("simx_phase_busy_cycles_total",
                          "busy cycles attributed per phase", labels=("phase",))
_PHASE_WAIT = obs.counter("simx_phase_wait_cycles_total",
                          "wait cycles attributed per phase", labels=("phase",))
_RUN_SECONDS = obs.histogram("simx_run_seconds",
                             "wall-clock seconds per simulator run")
_PREEMPTIONS = obs.counter("simx_preemptions_total",
                           "involuntary thread context switches")
_MIGRATIONS = obs.counter("simx_migrations_total",
                          "thread dispatches onto a different core")
_SCHED_WAIT = obs.counter("simx_sched_wait_cycles_total",
                          "cycles runnable threads queued for a core")


class DeadlockError(RuntimeError):
    """No thread can make progress (mismatched barriers or stuck locks)."""


class TraceError(ValueError):
    """A malformed trace: unbalanced phases, unlocking an unheld lock, ..."""


@dataclass
class SimulationResult:
    """Everything a run produced: timing, phase split, protocol counters."""

    program_name: str
    n_threads: int
    n_cores: int
    total_cycles: int
    thread_cycles: tuple[int, ...]
    phase_stats: PhaseStats
    coherence: CoherenceStats
    instructions: tuple[int, ...]
    coherence_by_phase: "dict[str, CoherenceStats]" = field(default_factory=dict)
    #: dispatch accounting (preemptions, migrations, queue wait); all
    #: zeros under the pinned scheduler
    sched: SchedStats = field(default_factory=SchedStats)
    # execution-engine accounting (observability; not part of the timing
    # semantics, so cache keys and golden outputs never depend on them)
    engine: str = "reference"
    n_ops: int = 0
    n_bursts: int = 0
    n_fused_ops: int = 0
    n_burst_fallbacks: int = 0

    def phase_cycles(self, phase: str, thread_id: "int | None" = None) -> int:
        """Busy cycles attributed to a phase (see :class:`PhaseStats`)."""
        return self.phase_stats.busy_cycles(phase, thread_id)

    def phase_wall_cycles(self, phase: str) -> int:
        """Wall-clock extent of a phase."""
        return self.phase_stats.span_cycles(phase)

    def phase_coherence(self, phase: str) -> CoherenceStats:
        """Protocol events attributed to one phase (zeros if none)."""
        return self.coherence_by_phase.get(phase, CoherenceStats())

    def summary(self) -> str:
        """Human-readable run summary: timing, phases, protocol events."""
        from repro.util.tables import TextTable

        parts = [
            f"program {self.program_name}: {self.n_threads} threads on "
            f"{self.n_cores} cores, {self.total_cycles:,} cycles"
        ]
        phases = self.phase_stats.phases()
        if phases:
            t = TextTable(
                title="phases",
                columns=["phase", "busy cycles", "wait cycles", "wall span"],
            )
            for ph in phases:
                t.add_row([
                    ph,
                    self.phase_stats.busy_cycles(ph),
                    self.phase_stats.wait_cycles(ph),
                    self.phase_stats.span_cycles(ph),
                ])
            parts.append(t.render())
        c = self.coherence
        t2 = TextTable(title="coherence", columns=["event", "count"])
        for name in ("reads", "writes", "l1_hits", "l1_misses", "l2_hits",
                     "memory_fetches", "cache_to_cache", "invalidations",
                     "upgrades", "writebacks"):
            t2.add_row([name, getattr(c, name)])
        parts.append(t2.render())
        if self.sched.scheduler != "pinned":
            t3 = TextTable(
                title=f"scheduler ({self.sched.scheduler})",
                columns=["event", "count"],
            )
            for name in ("dispatches", "preemptions", "migrations",
                         "involuntary_wait_cycles"):
                t3.add_row([name, getattr(self.sched, name)])
            parts.append(t3.render())
        return "\n\n".join(parts)


class Machine:
    """A configured CMP ready to run trace programs.

    Each :meth:`run` uses a fresh cache/coherence state (cold caches), like
    a fresh simulator process per benchmark run.
    """

    def __init__(self, config: MachineConfig):
        self.config = config

    def run(self, program: TraceProgram) -> SimulationResult:
        """Execute a program and return its timing breakdown.

        Parameters
        ----------
        program:
            The trace program to execute.

        Raises
        ------
        ValueError
            If the program has more threads than the machine has cores
            under the pinned scheduler (the paper's one-thread-per-core
            model); configure ``MachineConfig(scheduler="round-robin")``
            or ``"acmp"`` to time-multiplex.
        DeadlockError
            If the threads stop making progress.
        TraceError
            If a trace is malformed.
        """
        if not obs.REGISTRY.enabled:
            return self._run(program)
        t0 = time.perf_counter()
        with obs.span("simx.run", program=program.name,
                      threads=program.n_threads, cores=self.config.n_cores):
            result = self._run(program)
        _RUN_SECONDS.observe(time.perf_counter() - t0)
        _RUNS.inc(engine=result.engine)
        _OPS.inc(result.n_ops)
        _FUSED_OPS.inc(result.n_fused_ops)
        _BURSTS.inc(result.n_bursts)
        _FALLBACKS.inc(result.n_burst_fallbacks)
        _CYCLES.inc(result.total_cycles)
        _INSTRUCTIONS.inc(sum(result.instructions))
        if result.sched.preemptions:
            _PREEMPTIONS.inc(result.sched.preemptions)
        if result.sched.migrations:
            _MIGRATIONS.inc(result.sched.migrations)
        if result.sched.involuntary_wait_cycles:
            _SCHED_WAIT.inc(result.sched.involuntary_wait_cycles)
        for ph in result.phase_stats.phases():
            _PHASE_BUSY.inc(result.phase_stats.busy_cycles(ph), phase=ph)
            _PHASE_WAIT.inc(result.phase_stats.wait_cycles(ph), phase=ph)
        return result

    def _run(self, program: TraceProgram) -> SimulationResult:
        """The actual discrete-event loop behind :meth:`run`."""
        scheduled = self.config.scheduler != "pinned"
        if program.n_threads > self.config.n_cores and not scheduled:
            raise ValueError(
                f"program has {program.n_threads} threads but machine has "
                f"{self.config.n_cores} cores; the pinned scheduler does "
                f"not time-multiplex — configure "
                f"MachineConfig(scheduler='round-robin') or "
                f"scheduler='acmp' to oversubscribe"
            )

        # engine selection: batch, unless the configuration rules out
        # reordering private work (any non-pinned scheduler does), in
        # which case the op-at-a-time reference loop below runs
        if supports_batch_path(self.config):
            return run_batch(self.config, program)

        # pinned: thread i owns core i, so only n_threads cores are live.
        # time-multiplexed: threads move, so all n_cores are live and a
        # thread's L1/perf identity follows the physical core under it.
        coherence = CoherenceController(
            self.config, live_cores=None if scheduled else program.n_threads
        )
        cores = [
            CoreModel(
                i, self.config.core, coherence,
                perf_factor=self.config.perf_factor(i),
            )
            for i in range(
                self.config.n_cores if scheduled else program.n_threads
            )
        ]
        threads = []
        for t in program.threads:
            kinds, args, labels = t.columns()
            threads.append(ThreadContext(tid=t.thread_id, kinds=kinds.tolist(),
                                         args=args.tolist(), labels=labels))
        ops_executed = 0
        stats = PhaseStats()
        scheduler = build_scheduler(self.config)

        def charge_wait(ctx: ThreadContext, cycles: int) -> None:
            """Attribute run-queue delay to the thread's current phase."""
            stats.add_wait(ctx.current_phase(), ctx.tid, cycles)

        scheduler.attach(threads, charge_wait)
        barrier_arrivals: dict[int, dict[int, int]] = {}
        lock_holder: dict[int, int] = {}
        lock_waiters: dict[int, list[int]] = {}
        phase_coherence: dict[str, CoherenceStats] = {}

        def release_barrier(bid: int) -> None:
            arrivals = barrier_arrivals.pop(bid)
            release = max(arrivals.values()) + self.config.barrier_release_latency
            for tid, arrived_at in arrivals.items():
                ctx = threads[tid]
                stats.add_wait(ctx.current_phase(), tid, release - arrived_at)
                ctx.clock = release
                ctx.state = ThreadState.RUNNABLE
                ctx.barrier_id = None
                scheduler.on_unblock(ctx)

        def step(ctx: ThreadContext) -> None:
            nonlocal ops_executed
            i = ctx.ip
            try:
                kind = ctx.kinds[i]
            except IndexError:
                if ctx.held_locks:
                    raise TraceError(
                        f"thread {ctx.tid} finished holding locks {sorted(ctx.held_locks)}"
                    ) from None
                if ctx.phase_stack:
                    raise TraceError(
                        f"thread {ctx.tid} finished inside phases {ctx.phase_stack}"
                    ) from None
                ctx.state = ThreadState.DONE
                scheduler.on_done(ctx)
                return

            arg = ctx.args[i]
            ctx.ip = i + 1
            ops_executed += 1
            if kind == COMPUTE:
                cycles = cores[ctx.core].compute_cycles(arg)
                stats.add_busy(ctx.current_phase(), ctx.tid, cycles)
                ctx.clock += cycles
                if scheduled:
                    ctx.instructions += arg
                    scheduler.on_charge(ctx, cycles)
            elif kind == LOAD or kind == STORE:
                # the access's protocol events land in its phase's bucket
                coherence.stats = phase_coherence.setdefault(
                    ctx.current_phase(), CoherenceStats())
                core = cores[ctx.core]
                access = core.load_cycles if kind == LOAD else core.store_cycles
                cycles = access(arg, ctx.clock)
                stats.add_busy(ctx.current_phase(), ctx.tid, cycles)
                ctx.clock += cycles
                if scheduled:
                    ctx.instructions += 1
                    scheduler.on_charge(ctx, cycles)
            elif kind == PHASE_BEGIN:
                phase = ctx.labels[arg]
                ctx.phase_stack.append(phase)
                stats.note_begin(phase, ctx.clock)
                if scheduled:
                    scheduler.on_phase_change(ctx)
            elif kind == PHASE_END:
                phase = ctx.labels[arg]
                if not ctx.phase_stack or ctx.phase_stack[-1] != phase:
                    raise TraceError(
                        f"thread {ctx.tid}: PhaseEnd({phase!r}) does not match "
                        f"open phases {ctx.phase_stack}"
                    )
                ctx.phase_stack.pop()
                stats.note_end(phase, ctx.clock)
                if scheduled:
                    scheduler.on_phase_change(ctx)
            elif kind == BARRIER:
                arrivals = barrier_arrivals.setdefault(arg, {})
                if ctx.tid in arrivals:
                    raise TraceError(
                        f"thread {ctx.tid} hit barrier {arg} twice "
                        "before release"
                    )
                arrivals[ctx.tid] = ctx.clock
                ctx.state = ThreadState.AT_BARRIER
                ctx.barrier_id = arg
                scheduler.on_block(ctx)
                if len(arrivals) == program.n_threads:
                    release_barrier(arg)
            elif kind == LOCK:
                if arg not in lock_holder:
                    lock_holder[arg] = ctx.tid
                    ctx.held_locks.add(arg)
                    cycles = self.config.lock_acquire_latency
                    stats.add_busy(ctx.current_phase(), ctx.tid, cycles)
                    ctx.clock += cycles
                    if scheduled:
                        scheduler.on_charge(ctx, cycles)
                else:
                    lock_waiters.setdefault(arg, []).append(ctx.tid)
                    ctx.state = ThreadState.WAIT_LOCK
                    scheduler.on_block(ctx)
            else:  # UNLOCK: the columns hold no other kind
                if lock_holder.get(arg) != ctx.tid:
                    raise TraceError(
                        f"thread {ctx.tid} unlocked lock {arg} it does not hold"
                    )
                del lock_holder[arg]
                ctx.held_locks.discard(arg)
                waiters = lock_waiters.get(arg)
                if waiters:
                    next_tid = waiters.pop(0)
                    w = threads[next_tid]
                    wait = max(w.clock, ctx.clock) - w.clock
                    stats.add_wait(w.current_phase(), next_tid, wait)
                    w.clock = max(w.clock, ctx.clock)
                    lock_holder[arg] = next_tid
                    w.held_locks.add(arg)
                    cycles = self.config.lock_acquire_latency
                    stats.add_busy(w.current_phase(), next_tid, cycles)
                    w.clock += cycles
                    w.state = ThreadState.RUNNABLE
                    # the handover acquire is charged before the waiter is
                    # re-dispatched, so it never counts against a quantum
                    scheduler.on_unblock(w)

        # main loop: the scheduler names the next thread to advance (for
        # pinned dispatch this is the pre-refactor rule — the earliest
        # runnable thread — verbatim)
        while True:
            nxt = scheduler.next_thread()
            if nxt is None:
                if all(t.state is ThreadState.DONE for t in threads):
                    break
                stuck = {
                    t.tid: t.state.value for t in threads if t.state is not ThreadState.DONE
                }
                raise DeadlockError(
                    f"no runnable threads; blocked: {stuck} "
                    f"(pending barriers: {list(barrier_arrivals)}, "
                    f"held locks: {lock_holder})"
                )
            step(nxt)

        return SimulationResult(
            program_name=program.name,
            n_threads=program.n_threads,
            n_cores=self.config.n_cores,
            total_cycles=max(t.clock for t in threads),
            thread_cycles=tuple(t.clock for t in threads),
            phase_stats=stats,
            coherence=CoherenceStats.total(phase_coherence.values()),
            instructions=(
                tuple(t.instructions for t in threads)
                if scheduled
                else tuple(c.instructions_retired for c in cores)
            ),
            coherence_by_phase=phase_coherence,
            sched=scheduler.stats,
            engine="reference",
            n_ops=ops_executed,
        )
