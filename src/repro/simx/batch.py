"""Lockstep batch execution: per-thread private segments between sync points.

The reference interpreter in :mod:`repro.simx.machine` advances one
operation at a time, paying Python dispatch, a coherence-stats snapshot
and a scheduler pass per op.  This module removes the scheduler from
private work entirely: each thread's trace is compiled, from its
integer columns (:meth:`~repro.simx.trace.ThreadTrace.columns`), into a
structure-of-arrays sequence of **segments** (maximal runs of
thread-private ``Compute`` / ``Load`` / ``Store``, as parallel lists of
kind codes and arguments, pure-compute runs additionally as a numpy
array) separated by **sync points** (shared accesses, barriers, locks;
phase markers are segment boundaries handled inline).
A line is *private* when exactly one thread touches it anywhere in the
program (at line granularity); every other line is *shared*.  Execution
then alternates two regimes:

* **eager epochs** — every runnable thread advances through its segments
  back-to-back with no scheduler involvement, charging busy cycles,
  cache state and coherence counters through an inlined private-line
  protocol (L1 hit, or miss filled from L2/memory), until it parks at
  its next sync point (or bails on an eviction hazard);
* **global order** — parked threads wait on a ``(clock, tid)`` heap and
  their sync ops execute one at a time in heap order — exactly the
  reference scheduler's earliest-runnable-first order — through the full
  protocol paths; after each op only the threads it made runnable (the
  dispatcher, barrier releasees, a lock's next holder) re-advance, in
  ascending tid order.

Why this is cycle- and stats-identical to the reference interleaving:

* a private line enters core C's L1 only through C's own accesses
  (remote ops invalidate/downgrade, never install), so executing C's
  private ops *early* sees identical L1 state unless the target set is
  full and holds a valid shared line — then the victim, and whether an
  eviction happens at all, depend on concurrent remote invalidations, so
  the offending op is parked and executed at its exact global position;
* a private line needs no directory entry in an epoch: its sharers are
  ``{tid}`` while it is valid in its thread's L1 (owner ``tid`` in E/M)
  and empty otherwise, and its sticky ``in_l2`` bit (the controller
  keeps no L2 arrays) means "filled before", which the engine-local
  ``filled`` set records; it changes only through the thread's own
  accesses, so early fills see the reference's L2 state.  A bailed
  access takes the full path, so before it parks its entry is handed
  over: ``in_l2`` from ``filled``, no owner, the thread dropped from the
  sharers (an earlier bailed fill may have left them), and the line
  joins ``filled``;
* :class:`~repro.simx.coherence.CoherenceStats` are sums and
  :class:`~repro.simx.stats.PhaseStats` spans are min/max over per-thread
  clocks that themselves evolve identically, so attribution is
  order-independent; the reference runs ops in ``(clock, tid, position)``
  order, so sorting phases by their earliest such key restores its
  first-seen key order;
* sync ops execute in the reference global order by construction: when
  every thread is parked, each parked clock equals its reference value
  (private timing is counter-exact), and the reference scheduler would
  pick the minimum-clock thread (ties to the lowest tid) next.

The engine runs whenever :func:`supports_batch_path` allows it (the
default); equivalence with the reference engine is enforced by
``tests/differential/``.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field
from heapq import heappop, heappush

import numpy as np

from repro.simx.cache import CacheLine, MesiState
from repro.simx.coherence import CoherenceController, CoherenceStats
from repro.simx.interconnect import BusInterconnect
from repro.simx.config import MachineConfig
from repro.simx.core_model import CoreModel
from repro.simx.stats import PhaseStats
from repro.simx.trace import (
    COMPUTE,
    LOAD,
    OP_TYPES,
    PHASE_BEGIN,
    STORE,
    Barrier,
    Lock,
    PhaseBegin,
    PhaseEnd,
    TraceProgram,
    Unlock,
)

__all__ = ["supports_batch_path", "compile_batch", "run_batch", "BatchProgram"]

#: vectorise the compute-cycle sum only past this run length — below it the
#: numpy call costs more than the scalar loop.
_VEC_MIN = 8


def supports_batch_path(config: MachineConfig) -> bool:
    """Whether the batch interpreter may run this configuration.

    Requires the ``batch_path`` knob (on by default) plus every
    order-independence gate: flat DRAM (the banked model's open-row
    state couples cores), no bus arbitration (a contended bus serialises
    transactions in global arrival order), and pinned dispatch
    (:func:`repro.simx.sched.supports_scheduling` — lockstep epochs
    assume one thread per core).
    """
    from repro.simx.sched import supports_scheduling

    return (
        config.batch_path
        and config.dram == "flat"
        and not (config.interconnect == "bus" and config.bus_occupancy > 0)
        and supports_scheduling(config)
    )


class _Seg:
    """A maximal run of private ops in structure-of-arrays form.

    ``kinds[j]`` / ``args[j]`` drive the hot loop without isinstance
    dispatch; they are plain lists because indexing numpy per op is
    slow.  ``lead`` counts the compute ops before the first load/store
    (all of them in a pure-compute segment).  Pure-compute segments of
    ``_VEC_MIN`` ops or more carry their instruction counts as a float
    array (``carr``) so the whole run prices as one vectorised ceil-sum.
    """

    __slots__ = ("kinds", "args", "lead", "carr", "total_instr")

    def __init__(self, kinds: list, args: list, lead: int, carr=None):
        self.kinds = kinds
        self.args = args
        self.lead = lead
        self.carr = carr
        self.total_instr = sum(args) if carr is not None else 0

    @classmethod
    def tail(cls, seg: "_Seg", start: int) -> "_Seg":
        """The rest of ``seg`` from op ``start`` on, after a hazard bail."""
        kinds = seg.kinds[start:]
        args = seg.args[start:]
        lead = next((j for j, k in enumerate(kinds) if k != COMPUTE), len(kinds))
        pure = lead == len(args) >= _VEC_MIN
        return cls(kinds, args, lead, np.array(args, dtype=np.float64) if pure else None)


@dataclass(frozen=True)
class BatchProgram:
    """A program lowered for batch execution.

    ``thread_entries[tid]`` mixes :class:`_Seg` runs with phase markers
    and sync ops: a shared load or store is a ``(LOAD | STORE, addr)``
    pair, a barrier or lock op is its op object.  ``shared_lines`` is the
    eviction bail-out set.  For the ``n_bursts``/``n_fused_ops``
    accounting a multi-op segment counts as one burst.
    """

    thread_entries: tuple
    shared_lines: frozenset
    n_bursts: int
    n_fused_ops: int


def compile_batch(program: TraceProgram, line_size: int) -> BatchProgram:
    """Lower a program into per-thread segment/sync streams.

    Works on the threads' columns, concatenated: one sort finds the
    shared lines, one mask marks every op that is not private work, and
    segments are the runs between those marks.  Python objects are built
    only per entry: a segment's ``.tolist()`` slices, and a sync or
    marker entry (an object trace's own op objects are reused for those).
    """
    threads = program.threads
    columns = [t.columns() for t in threads]
    lengths = [len(c[0]) for c in columns]
    kinds = np.concatenate([c[0] for c in columns])
    args = np.concatenate([c[1] for c in columns])
    ends = np.cumsum(lengths)
    starts = ends - lengths
    private, shared = _private_mask(kinds, args, lengths, line_size)
    heads, stops, leads, is_run = _entry_heads(private, kinds, starts)
    sizes = stops - heads
    fused = is_run & (sizes >= 2)
    vector = is_run & (leads == sizes) & (sizes >= _VEC_MIN)

    per_head = (heads, stops, kinds[heads], args[heads], leads, is_run, vector)
    made: dict = {}
    entries: list[tuple] = []
    at = 0
    for trace, (_, _, labels), offset, stop_at in zip(
        threads, columns, starts.tolist(), np.searchsorted(heads, ends).tolist()
    ):
        objs = trace.ops if trace.materialised else None
        out = []
        for h, stop, k, a, lead, run, vec in zip(
            *(column[at:stop_at].tolist() for column in per_head)
        ):
            if run:
                seg_args = args[h:stop]
                out.append(_Seg(kinds[h:stop].tolist(), seg_args.tolist(), lead,
                                seg_args.astype(np.float64) if vec else None))
            elif k == LOAD or k == STORE:
                out.append((k, a))
            elif objs is not None:
                out.append(objs[h - offset])
            else:
                key = (k, labels[a] if k >= PHASE_BEGIN else a)
                op = made.get(key)
                if op is None:
                    op = made[key] = OP_TYPES[k](key[1])
                out.append(op)
        entries.append(tuple(out))
        at = stop_at

    return BatchProgram(
        thread_entries=tuple(entries),
        shared_lines=frozenset(shared.tolist()),
        n_bursts=int(fused.sum()),
        n_fused_ops=int(sizes[fused].sum()),
    )


def _private_mask(kinds, args, lengths, line_size):
    """``(private, shared)``: which ops are private work, and the sorted
    lines two or more threads access.

    The accesses come in thread order, so one stable sort by line puts
    them in ``(line, tid)`` order; a line is shared where its tid changes.
    """
    mem = (kinds == LOAD) | (kinds == STORE)
    lines = args[mem] // line_size
    tids = np.repeat(np.arange(len(lengths), dtype=np.int32), lengths)[mem]
    order = np.argsort(lines, kind="stable")
    by_line, by_tid = lines[order], tids[order]
    # a shared line shows up once per tid change: keep it once (np.unique
    # would load its hash-table code, ~1.5 MiB of resident memory)
    repeats = by_line[1:][(by_line[1:] == by_line[:-1]) & (by_tid[1:] != by_tid[:-1])]
    first = np.ones(repeats.size, dtype=bool)
    first[1:] = repeats[1:] != repeats[:-1]
    shared = repeats[first]
    private = kinds == COMPUTE
    if shared.size:
        at = np.minimum(np.searchsorted(shared, lines), shared.size - 1)
        private[mem] = shared[at] != lines
    else:
        private |= mem
    return private, shared


def _entry_heads(private, kinds, starts):
    """``(heads, stops, leads, is_run)`` over the entries, in op order.

    An entry is a maximal run of private work, or one other op.  A
    thread's first op always starts an entry, so each entry ends where
    the next begins.  ``leads`` counts a run's compute ops before its
    first access.
    """
    run_start = private.copy()
    run_start[1:] &= ~private[:-1]
    firsts = starts[starts < len(kinds)]
    run_start[firsts] = private[firsts]
    heads = np.flatnonzero(run_start | ~private)
    stops = np.append(heads[1:], len(kinds))
    accesses = np.flatnonzero(private & (kinds != COMPUTE))
    first_access = np.append(accesses, len(kinds))[np.searchsorted(accesses, heads)]
    return heads, stops, np.minimum(first_access, stops) - heads, private[heads]


# thread states: parked threads hold their next sync op in ``pending``
_RUNNABLE, _PENDING, _AT_BARRIER, _WAIT_LOCK, _DONE = range(5)


_UNATTRIBUTED = "(unattributed)"

#: entry types a thread runs inline; anything else is a sync op
_INLINE = frozenset((_Seg, PhaseBegin, PhaseEnd))


@dataclass
class _Thread:
    """Batch-scheduler bookkeeping for one thread.

    ``phase`` is the innermost open phase.  ``busy`` and ``bucket`` are
    that phase's busy-cycle map and protocol-event bucket, fetched on
    first use and dropped at every phase change, so an access pays no
    lookups after the phase's first one.
    """

    tid: int
    entries: list
    ip: int = 0
    clock: int = 0
    state: int = _RUNNABLE
    pending: object = None
    phase_stack: list = field(default_factory=list)
    held_locks: set = field(default_factory=set)
    phase: str = _UNATTRIBUTED
    busy: "dict | None" = None
    bucket: "CoherenceStats | None" = None

    def enter(self, phase: str) -> None:
        self.phase_stack.append(phase)
        self.phase = phase
        self.busy = self.bucket = None

    def leave(self) -> None:
        self.phase_stack.pop()
        self.phase = self.phase_stack[-1] if self.phase_stack else _UNATTRIBUTED
        self.busy = self.bucket = None

    def charge_busy(self, stats: PhaseStats, cycles: int) -> None:
        """Add busy cycles to the current phase (none for zero cycles)."""
        if cycles:
            busy = self.busy
            if busy is None:
                busy = self.busy = stats.busy[self.phase]
            busy[self.tid] += cycles


def run_batch(config: MachineConfig, program: TraceProgram):
    """Execute a program on the batch engine; returns a SimulationResult
    cycle- and stats-identical to the reference interpreter's."""
    from repro.simx.machine import DeadlockError, SimulationResult, TraceError

    coherence = CoherenceController(config)
    cores = [
        CoreModel(i, config.core, coherence, perf_factor=config.perf_factor(i))
        for i in range(program.n_threads)
    ]
    compiled = compile_batch(program, config.line_size)
    shared_lines = compiled.shared_lines
    threads = [
        _Thread(tid=t.thread_id, entries=list(compiled.thread_entries[i]))
        for i, t in enumerate(program.threads)
    ]

    stats = PhaseStats()
    # protocol events land straight in their phase's bucket (the run's
    # totals are the buckets' sum); ``first_*`` hold each phase's earliest
    # load/store and PhaseBegin key, to restore the reference key order
    phase_coherence: dict[str, CoherenceStats] = {}
    first_access: dict[str, tuple] = {}
    first_begin: dict[str, tuple] = {}
    barrier_arrivals: dict[int, dict[int, int]] = {}
    lock_holder: dict[int, int] = {}
    lock_waiters: dict[int, list[int]] = {}
    # parked threads keyed ``(clock, tid)``: a parked clock never changes,
    # so an entry stays valid until its thread is dispatched
    heap: list[tuple[int, int]] = []
    ops_executed = 0
    burst_fallbacks = 0

    np_ceil = np.ceil
    ceil = math.ceil
    read = coherence.read
    write = coherence.write

    # hoisted machine facts for the inlined private-access path
    interconnect = coherence.interconnect
    # the in_l2 bits of private lines, which keep no directory entry
    filled: set[int] = set()
    hit_lat = config.l1d.hit_latency
    l2_lat = config.l2.hit_latency
    mem_lat = config.memory_latency
    line_size = config.line_size
    # request latency is deterministic per (core, home bank): an
    # uncontended bus is one bank at a fixed latency (ContendedBus is
    # gated upstream), a mesh reads its precomputed table
    if type(interconnect) is BusInterconnect:
        req_table = ((interconnect.latency,),) * program.n_threads
    else:
        req_table = interconnect.request_table
    n_banks = len(req_table[0])
    M_ST, E_ST, INV = MesiState.MODIFIED, MesiState.EXCLUSIVE, MesiState.INVALID
    load_state = MesiState.SHARED if config.coherence_protocol == "msi" else E_ST
    # L1 set indices that could ever hold a shared line: fills elsewhere
    # can skip the eviction-hazard scan with one membership test
    shared_set_idx = frozenset(l % config.l1d.n_sets for l in shared_lines)

    def bucket(ctx: _Thread, clock: int) -> CoherenceStats:
        """The thread's current-phase protocol-event bucket, for a load or
        store that starts at ``clock``.  A thread's clock never falls, so
        its first access in a phase entry is its earliest one there and
        later accesses reuse the cached bucket without a key check."""
        b = ctx.bucket
        if b is not None:
            return b
        phase = ctx.phase
        at = (clock, ctx.tid)
        b = phase_coherence.get(phase)
        if b is None:
            b = phase_coherence[phase] = CoherenceStats()
            first_access[phase] = at
        elif at < first_access[phase]:
            first_access[phase] = at
        ctx.bucket = b
        return b

    def advance(ctx: _Thread) -> None:
        """Eagerly run a thread's segments until it parks or finishes."""
        nonlocal ops_executed, burst_fallbacks
        entries = ctx.entries
        n_entries = len(entries)
        i = ctx.ip
        if i < n_entries:
            if type(entries[i]) not in _INLINE:
                # already at a sync point: park without the setup below
                ctx.pending = entries[i]
                ctx.ip = i + 1
                ctx.state = _PENDING
                heappush(heap, (ctx.clock, ctx.tid))
                return
        core = cores[ctx.tid]
        tid = ctx.tid
        denom = core.config.effective_ipc * core.perf_factor
        l1 = coherence.l1s[tid]
        l1_sets = l1._sets
        n_sets = l1.n_sets
        ways = l1.ways
        req_row = req_table[tid]
        while i < n_entries:
            e = entries[i]
            t = type(e)
            if t is _Seg:
                if e.carr is not None:
                    # pure compute, long enough to price as one ceil-sum
                    busy = int(np_ceil(e.carr / denom).sum())
                    core.instructions_retired += e.total_instr
                    ctx.charge_busy(stats, busy)
                    ctx.clock += busy
                    ops_executed += len(e.args)
                    i += 1
                    continue
                busy = 0
                n_loads = 0
                n_stores = 0
                instr = 0
                executed = 0
                bailed = False
                # per-segment tallies, flushed to the phase bucket once
                d_l1h = d_l1m = d_l2h = d_mem = d_upg = d_wb = d_ev = 0
                for k, a in zip(e.kinds, e.args):
                    if k == COMPUTE:
                        instr += a
                        busy += ceil(a / denom)
                        executed += 1
                        continue
                    # inlined private-line read/write: the decisions and
                    # latencies of CoherenceController.read/write on the
                    # same L1 state (a private line never has a remote
                    # owner or sharer, and ``filled`` is its in_l2 bit),
                    # minus the per-op call overhead and the directory
                    line = a // line_size
                    set_idx = line % n_sets
                    s = l1_sets[set_idx]
                    ent = s.get(line)
                    hit = ent is not None and ent.state is not INV
                    if hit and k == LOAD:
                        s.move_to_end(line)
                        d_l1h += 1
                        n_loads += 1
                        busy += hit_lat
                        executed += 1
                        continue
                    if hit:  # store hit: M silent, E upgrades, S (MSI) pays
                        s.move_to_end(line)
                        d_l1h += 1
                        n_stores += 1
                        state = ent.state
                        if state is M_ST:
                            busy += hit_lat
                        elif state is E_ST:
                            ent.state = M_ST
                            busy += hit_lat
                        else:
                            # SHARED → upgrade; a private line has no
                            # remote sharers, so nothing to invalidate
                            d_upg += 1
                            busy += hit_lat + req_row[line % n_banks]
                            ent.state = M_ST
                        executed += 1
                        continue
                    # miss: bail if the fill could evict a shared line
                    if (
                        len(s) - (ent is not None) >= ways
                        and set_idx in shared_set_idx
                        and any(
                            la != line and ln.state is not INV and la in shared_lines
                            for la, ln in s.items()
                        )
                    ):
                        bailed = True
                        break
                    d_l1m += 1
                    lat = hit_lat + req_row[line % n_banks]
                    if line in filled:
                        d_l2h += 1
                        lat += l2_lat
                    else:
                        d_mem += 1
                        lat += l2_lat + mem_lat
                        filled.add(line)
                    # a missed private line has no sharers: E (S under MSI)
                    if k == LOAD:
                        n_loads += 1
                        new_state = load_state
                    else:
                        n_stores += 1
                        new_state = M_ST
                    # install, evicting the set's LRU valid line if full;
                    # the victim is private (a shared victim bails above),
                    # so its CacheLine object can be reused for the fill
                    if ent is not None:
                        del s[line]
                    victim = None
                    while len(s) >= ways:
                        _, old = s.popitem(last=False)
                        if old.state is not INV:
                            victim = old
                            break
                    if victim is not None:
                        d_ev += 1
                        if victim.state is M_ST:
                            d_wb += 1
                            lat += req_row[victim.line_addr % n_banks]
                        victim.line_addr = line
                        victim.state = new_state
                        s[line] = victim
                    else:
                        s[line] = CacheLine(line, new_state)
                    busy += lat
                    executed += 1
                core.instructions_retired += instr + n_loads + n_stores
                core.loads += n_loads
                core.stores += n_stores
                if n_loads or n_stores:
                    l1.hits += d_l1h
                    l1.misses += d_l1m
                    l1.evictions += d_ev
                    at = ctx.clock
                    if e.lead:
                        at += sum(ceil(a / denom) for a in e.args[:e.lead])
                    b = bucket(ctx, at)
                    b.reads += n_loads
                    b.writes += n_stores
                    b.l1_hits += d_l1h
                    b.l1_misses += d_l1m
                    b.l2_hits += d_l2h
                    b.memory_fetches += d_mem
                    b.upgrades += d_upg
                    b.writebacks += d_wb
                if busy:
                    ctx.charge_busy(stats, busy)
                    ctx.clock += busy
                ops_executed += executed
                if bailed:
                    # park: the offending op must run at its global order
                    # through the full protocol path; the rest of the
                    # segment resumes eagerly afterwards.  That path reads
                    # the directory entry the eager loop never kept: hand
                    # over L2 residency, and drop the copy an earlier
                    # full-path fill may still record (the line is not in
                    # this L1).  The op fills the line.
                    de = coherence._entry(line)
                    de.in_l2 = line in filled
                    de.owner = None
                    de.sharers.discard(tid)
                    filled.add(line)
                    burst_fallbacks += 1
                    ctx.pending = (e.kinds[executed], e.args[executed])
                    if executed + 1 < len(e.args):
                        entries[i] = _Seg.tail(e, executed + 1)
                    else:
                        i += 1
                    ctx.ip = i
                    ctx.state = _PENDING
                    heappush(heap, (ctx.clock, tid))
                    return
                i += 1
            elif t is PhaseBegin:
                ops_executed += 1
                ctx.enter(e.phase)
                stats.note_begin(e.phase, ctx.clock)
                at = (ctx.clock, tid, i)
                first_begin[e.phase] = min(first_begin.get(e.phase, at), at)
                i += 1
            elif t is PhaseEnd:
                ops_executed += 1
                if not ctx.phase_stack or ctx.phase_stack[-1] != e.phase:
                    raise TraceError(
                        f"thread {tid}: PhaseEnd({e.phase!r}) does not match "
                        f"open phases {ctx.phase_stack}"
                    )
                ctx.leave()
                stats.note_end(e.phase, ctx.clock)
                i += 1
            else:
                # sync point: shared access, barrier, lock or unlock
                ctx.pending = e
                ctx.ip = i + 1
                ctx.state = _PENDING
                heappush(heap, (ctx.clock, tid))
                return
        ctx.ip = i
        if ctx.held_locks:
            raise TraceError(
                f"thread {tid} finished holding locks {sorted(ctx.held_locks)}"
            )
        if ctx.phase_stack:
            raise TraceError(
                f"thread {tid} finished inside phases {ctx.phase_stack}"
            )
        ctx.state = _DONE

    def dispatch_sync(ctx: _Thread, op) -> None:
        """One globally-ordered op through the full protocol path —
        semantics identical to the reference scheduler's ``step``.  Only
        the threads this op makes runnable are re-advanced, in ascending
        tid order."""
        nonlocal ops_executed
        ops_executed += 1
        t = type(op)
        tid = ctx.tid
        if t is tuple:  # a (LOAD | STORE, addr) access
            k, addr = op
            clock = ctx.clock
            b = ctx.bucket
            coherence.stats = b if b is not None else bucket(ctx, clock)
            core = cores[tid]
            core.instructions_retired += 1
            if k == LOAD:
                core.loads += 1
                cycles = read(tid, addr, clock)
            else:
                core.stores += 1
                cycles = write(tid, addr, clock)
            if cycles:  # ctx.charge_busy, inlined
                busy = ctx.busy
                if busy is None:
                    busy = ctx.busy = stats.busy[ctx.phase]
                busy[tid] += cycles
                ctx.clock = clock + cycles
            i = ctx.ip
            entries = ctx.entries
            if i < len(entries) and type(entries[i]) not in _INLINE:
                # the next entry is a sync op too: park without advance()
                ctx.pending = entries[i]
                ctx.ip = i + 1
                heappush(heap, (ctx.clock, tid))
            else:
                advance(ctx)
        elif t is Barrier:
            arrivals = barrier_arrivals.setdefault(op.barrier_id, {})
            if tid in arrivals:
                raise TraceError(
                    f"thread {tid} hit barrier {op.barrier_id} twice "
                    "before release"
                )
            arrivals[tid] = ctx.clock
            ctx.state = _AT_BARRIER
            if len(arrivals) == program.n_threads:
                del barrier_arrivals[op.barrier_id]
                release = max(arrivals.values()) + config.barrier_release_latency
                for w, arrived_at in arrivals.items():
                    r = threads[w]
                    stats.add_wait(r.phase, w, release - arrived_at)
                    r.clock = release
                for w in sorted(arrivals):
                    advance(threads[w])
        elif t is Lock:
            if op.lock_id not in lock_holder:
                lock_holder[op.lock_id] = tid
                ctx.held_locks.add(op.lock_id)
                cycles = config.lock_acquire_latency
                ctx.charge_busy(stats, cycles)
                ctx.clock += cycles
                advance(ctx)
            else:
                lock_waiters.setdefault(op.lock_id, []).append(tid)
                ctx.state = _WAIT_LOCK
        elif t is Unlock:
            if lock_holder.get(op.lock_id) != tid:
                raise TraceError(
                    f"thread {tid} unlocked lock {op.lock_id} it does not hold"
                )
            del lock_holder[op.lock_id]
            ctx.held_locks.discard(op.lock_id)
            waiters = lock_waiters.get(op.lock_id)
            if not waiters:
                advance(ctx)
                return
            next_tid = waiters.pop(0)
            w = threads[next_tid]
            wait = max(w.clock, ctx.clock) - w.clock
            stats.add_wait(w.phase, next_tid, wait)
            w.clock = max(w.clock, ctx.clock)
            lock_holder[op.lock_id] = next_tid
            w.held_locks.add(op.lock_id)
            cycles = config.lock_acquire_latency
            w.charge_busy(stats, cycles)
            w.clock += cycles
            for r in ((ctx, w) if tid < next_tid else (w, ctx)):
                advance(r)
        else:  # pragma: no cover - exhaustive over sync ops
            raise TraceError(f"unknown op {op!r}")

    # epoch loop: eager-advance everyone, then drain sync ops in the
    # reference global order; advance() parks each thread on the heap
    for ctx in threads:
        advance(ctx)
    while heap:
        ctx = threads[heappop(heap)[1]]
        dispatch_sync(ctx, ctx.pending)
    if any(t.state != _DONE for t in threads):
        states = {_AT_BARRIER: "barrier", _WAIT_LOCK: "lock"}
        stuck = {t.tid: states[t.state] for t in threads if t.state != _DONE}
        raise DeadlockError(
            f"no runnable threads; blocked: {stuck} "
            f"(pending barriers: {list(barrier_arrivals)}, "
            f"held locks: {lock_holder})"
        )

    totals = CoherenceStats(*map(sum, zip(*map(astuple, phase_coherence.values()))))
    phase_coherence = dict(sorted(phase_coherence.items(), key=lambda kv: first_access[kv[0]]))
    stats.spans = dict(sorted(stats.spans.items(), key=lambda kv: first_begin[kv[0]]))
    return SimulationResult(
        program_name=program.name,
        n_threads=program.n_threads,
        n_cores=config.n_cores,
        total_cycles=max(t.clock for t in threads),
        thread_cycles=tuple(t.clock for t in threads),
        phase_stats=stats,
        coherence=totals,
        instructions=tuple(c.instructions_retired for c in cores),
        coherence_by_phase=phase_coherence,
        engine="batch",
        n_ops=ops_executed,
        n_bursts=compiled.n_bursts,
        n_fused_ops=compiled.n_fused_ops,
        n_burst_fallbacks=burst_fallbacks,
    )
