"""Lockstep batch execution: per-thread private segments between sync points.

The reference interpreter in :mod:`repro.simx.machine` advances one
operation at a time, paying Python dispatch and a scheduler pass per
op.  This module removes the scheduler from
private work entirely: each thread's trace is compiled, from its
integer columns (:meth:`~repro.simx.trace.ThreadTrace.columns`), into
an **entry stream** — two parallel lists of entry codes and arguments,
built in bulk with one ``.tolist()`` each.  An entry is a sync point
(a shared access, barrier, lock or unlock: its op kind and argument), a
phase marker (handled inline), a lone private op (a ``Compute``, or a
private ``Load``/``Store`` coded :data:`_PRIVATE` above its kind), or a
:class:`_Seg` — a maximal multi-op run of thread-private ``Compute`` /
``Load`` / ``Store``, the only entry that is an object.
A line is *private* when exactly one thread touches it anywhere in the
program (at line granularity); every other line is *shared*.  Execution
then alternates two regimes:

* **eager epochs** — every runnable thread advances through its entries
  back-to-back with no scheduler involvement, charging busy cycles,
  cache state and coherence counters for private work, until it parks
  at its next sync point (or bails on an eviction hazard).  A segment
  with many accesses none of whose touched L1 sets can overflow (its
  entries plus the segment's new lines fit in its ways) is *settled in
  bulk*, in closed form: each line misses at most once, on its first
  access, and hits, fills, upgrades, states and LRU order follow from
  each line's first, last and stored accesses; any other segment runs
  the per-op inlined private-line protocol (L1 hit, or miss filled
  from L2/memory);
* **global order** — parked threads wait on a ``(clock, tid)`` heap and
  their sync ops execute one at a time in heap order — exactly the
  reference scheduler's earliest-runnable-first order — through the full
  protocol paths.  A thread that stays runnable alone after its op
  charges a following lone ``Compute`` inline and, while it is still
  the heap minimum, runs its next sync op without a push and pop; after
  any other op only the threads it made runnable (barrier releasees, a
  lock's next holder and the releaser) re-advance, in ascending tid
  order.

Why this is cycle- and stats-identical to the reference interleaving:

* a private line enters core C's L1 only through C's own accesses
  (remote ops invalidate/downgrade, never install), so executing C's
  private ops *early* sees identical L1 state unless the target set is
  full and holds a valid shared line — then the victim, and whether an
  eviction happens at all, depend on concurrent remote invalidations, so
  the offending op is parked and executed at its exact global position.
  A set that cannot overflow during a segment never evicts, whatever it
  holds, which is why the bulk settle needs no per-op check;
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
  order-independent — a segment's busy cycles and tallies may be summed
  in any order; the reference runs ops in ``(clock, tid, position)``
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
from dataclasses import dataclass, field
from heapq import heappop, heappush, heappushpop

import numpy as np

from repro.simx.cache import CacheLine, MesiState
from repro.simx.coherence import CoherenceController, CoherenceStats
from repro.simx.interconnect import BusInterconnect
from repro.simx.config import MachineConfig
from repro.simx.stats import PhaseStats
from repro.simx.trace import (
    COMPUTE,
    LOAD,
    LOCK,
    PHASE_BEGIN,
    PHASE_END,
    STORE,
    UNLOCK,
    TraceProgram,
)

__all__ = ["supports_batch_path", "compile_batch", "run_batch", "BatchProgram"]

#: vectorise the compute-cycle sum only past this run length — below it the
#: numpy call costs more than the scalar loop.
_VEC_MIN = 8
#: plan a segment for the bulk settle only from this many accesses on:
#: shorter ones rarely repay their share of the planning
_BULK_MIN = 512

#: entry codes beyond the op kinds: a multi-op segment, and a lone private
#: access (its kind plus ``_PRIVATE``); sync points are LOAD..UNLOCK
_SEG = 8
_PRIVATE = 8
_PRIVATE_LOAD = LOAD + _PRIVATE
#: the code the engine appends to every stream: the thread is done
_END = -1

_MODIFIED, _EXCLUSIVE, _SHARED, _INVALID = (
    MesiState.MODIFIED, MesiState.EXCLUSIVE, MesiState.SHARED, MesiState.INVALID,
)


def supports_batch_path(config: MachineConfig) -> bool:
    """Whether the batch interpreter may run this configuration.

    Requires the ``batch_path`` knob (on by default) plus every
    order-independence gate: flat DRAM (the banked model's open-row
    state couples cores), no bus arbitration (a contended bus serialises
    transactions in global arrival order), and pinned dispatch
    (private runs execute without a scheduler pass, so lockstep epochs
    assume one thread per core; every time-multiplexing policy runs on
    the reference engine).
    """
    return (
        config.batch_path
        and config.dram == "flat"
        and not (config.interconnect == "bus" and config.bus_occupancy > 0)
        and config.scheduler == "pinned"
    )


class _Seg:
    """A maximal run of private ops in structure-of-arrays form.

    ``kinds[j]`` / ``args[j]`` drive the per-op loop without isinstance
    dispatch; they are plain lists because indexing numpy per op is
    slow.  ``lead`` counts the compute ops before the first load/store
    (all of them in a pure-compute segment).  Pure-compute segments of
    ``_VEC_MIN`` ops or more carry their instruction counts as a float
    array (``carr``) so the whole run prices as one vectorised ceil-sum.
    A segment of ``_BULK_MIN`` accesses or more is listed in
    :attr:`BatchProgram.bulk_segments`, and a run gives it a ``plan``
    (:class:`_Plan`) for the bulk settle.
    """

    __slots__ = ("kinds", "args", "lead", "carr", "plan")

    def __init__(self, kinds: list, args: list, lead: int, carr=None):
        self.kinds = kinds
        self.args = args
        self.lead = lead
        self.carr = carr
        self.plan = None

    @classmethod
    def tail(cls, seg: "_Seg", start: int) -> "_Seg":
        """The rest of ``seg`` from op ``start`` on, after a hazard bail."""
        kinds = seg.kinds[start:]
        args = seg.args[start:]
        lead = next((j for j, k in enumerate(kinds) if k != COMPUTE), len(kinds))
        pure = lead == len(args) >= _VEC_MIN
        return cls(kinds, args, lead, np.array(args, dtype=np.float64) if pure else None)


class _Plan:
    """What a segment's bulk settle knows before it runs.

    ``touched`` lists the L1 sets it touches, ascending.  ``[d0, d1)`` is
    its range of the run's distinct-line arrays (:func:`_plan_settles`):
    its lines set after set, ``ends[k]`` closing set ``touched[k]``'s run
    (counted from ``d0``), with ``widest`` the longest run; and its lines
    again in last-access order.  ``[c0, c1)`` is its slice of the
    compute counts, ``n`` and ``n_stores`` its access and store counts."""

    __slots__ = ("touched", "ends", "widest", "d0", "d1", "c0", "c1", "n", "n_stores")

    def __init__(self, touched, ends, widest, d0, d1, c0, c1, n, n_stores):
        self.touched = touched
        self.ends = ends
        self.widest = widest
        self.d0 = d0
        self.d1 = d1
        self.c0 = c0
        self.c1 = c1
        self.n = n
        self.n_stores = n_stores


@dataclass(frozen=True)
class BatchProgram:
    """A program lowered for batch execution.

    ``thread_entries[tid]`` is the thread's entry stream, a ``(codes,
    args)`` pair of equally long lists: a sync point or phase marker is
    its op kind and argument (a phase marker's indexes
    ``thread_labels[tid]``), a lone private op is ``COMPUTE`` or its
    access kind plus ``_PRIVATE``, and a multi-op segment is ``_SEG``
    with its :class:`_Seg` as the argument.  ``shared_lines`` is the
    eviction bail-out set.  A completed run executes all ``n_ops`` ops
    exactly once (a bailed access runs once, on the full path), and
    ``thread_instructions[tid]`` is the count thread ``tid`` retires: its
    compute instructions plus one per load and store.  ``bulk_segments``
    lists every segment of ``_BULK_MIN`` accesses or more, in program
    order;
    ``access_lines`` / ``access_stores`` and ``compute_instr`` hold
    their accesses and compute instruction counts, segment after
    segment, and ``bulk_bounds`` each one's ``(accesses, computes)``
    end offsets.  For the ``n_bursts``/``n_fused_ops`` accounting a
    multi-op segment counts as one burst.
    """

    thread_entries: tuple
    thread_labels: tuple
    shared_lines: frozenset
    n_bursts: int
    n_fused_ops: int
    n_ops: int
    thread_instructions: tuple
    bulk_segments: tuple
    bulk_bounds: np.ndarray
    access_lines: np.ndarray
    access_stores: np.ndarray
    compute_instr: np.ndarray


def compile_batch(program: TraceProgram, line_size: int) -> BatchProgram:
    """Lower a program into per-thread entry streams.

    Works on the threads' columns, concatenated: one sort finds the
    shared lines, one mask marks every op that is not private work, and
    entries are the runs between those marks.  The entry codes and
    arguments of all threads come out of two ``.tolist()`` calls; the
    only per-entry objects are the multi-op segments.
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
    vector = fused & (leads == sizes) & (sizes >= _VEC_MIN)

    codes = kinds[heads]
    codes[is_run & ~fused & (codes != COMPUTE)] += _PRIVATE
    codes[fused] = _SEG
    entry_codes = codes.tolist()
    entry_args = args[heads].tolist()

    # every op of a segment, and every access and compute of a bulk one,
    # pulled out at once; a segment takes list slices of the first and
    # array views of the second
    op_fused = np.repeat(fused, sizes)
    seg_kinds = kinds[op_fused].tolist()
    seg_args = args[op_fused].tolist()
    is_access = kinds != COMPUTE
    counted = np.concatenate(([0], np.cumsum(is_access)))
    n_access = counted[stops] - counted[heads]
    bulk = fused & (n_access >= _BULK_MIN)
    op_bulk = np.repeat(bulk, sizes)
    access = op_bulk & is_access
    compute = op_bulk & ~is_access
    vector_instr = args[np.repeat(vector, sizes)].astype(np.float64)

    seg_at = np.flatnonzero(fused)
    sizes_f = sizes[seg_at]
    offsets = np.concatenate(([0], np.cumsum(sizes_f)))
    vec_f = vector[seg_at]
    vec_off = np.concatenate(([0], np.cumsum(np.where(vec_f, sizes_f, 0))))
    for e, lo, hi, lead, vec, v0 in zip(
        seg_at.tolist(), offsets[:-1].tolist(), offsets[1:].tolist(),
        leads[seg_at].tolist(), vec_f.tolist(), vec_off[:-1].tolist(),
    ):
        entry_args[e] = _Seg(seg_kinds[lo:hi], seg_args[lo:hi], lead,
                             vector_instr[v0:v0 + hi - lo] if vec else None)
    bulk_at = np.flatnonzero(bulk)
    n_bulk_access = n_access[bulk_at]
    mem = (kinds == LOAD) | (kinds == STORE)
    retired = np.concatenate(([0], np.cumsum(np.where(kinds == COMPUTE, args, mem))))

    bounds = [0] + np.searchsorted(heads, ends).tolist()
    return BatchProgram(
        thread_entries=tuple(
            (entry_codes[a:b], entry_args[a:b]) for a, b in zip(bounds, bounds[1:])
        ),
        thread_labels=tuple(c[2] for c in columns),
        shared_lines=frozenset(shared.tolist()),
        n_bursts=int(fused.sum()),
        n_fused_ops=int(sizes[fused].sum()),
        n_ops=int(kinds.size),
        thread_instructions=tuple((retired[ends] - retired[starts]).tolist()),
        bulk_segments=tuple(entry_args[e] for e in bulk_at.tolist()),
        bulk_bounds=np.stack((np.cumsum(n_bulk_access),
                              np.cumsum(sizes[bulk_at] - n_bulk_access)), axis=1),
        access_lines=args[access] // line_size,
        access_stores=kinds[access] == STORE,
        compute_instr=args[compute].astype(np.float64),
    )


def _plan_settles(compiled: BatchProgram, n_sets: int):
    """Give every bulk segment the static half of its settle, computed for
    all of them at once; returns the distinct-line arrays the plans index
    (``None`` without bulk segments): the lines set after set, and the
    lines in last-access order with how each is accessed (0 loads only,
    1 loaded first and stored later, 2 stored first).

    One sort puts each segment's accesses in (set, line) order, in time
    order within a line: a line's run yields how it is accessed and its
    last access, and a set's run of lines its share of the fit check.
    Marking each line at its last access lists the lines in last-access
    order.  Both orders keep each segment's lines in one range.
    """
    segs = compiled.bulk_segments
    lines = compiled.access_lines
    n_total = lines.size
    if not n_total:
        return None
    n_segs = len(segs)
    acc_end = compiled.bulk_bounds[:, 0]
    seg_of = np.zeros(n_total, dtype=np.int64)
    seg_of[acc_end[:-1]] = 1
    np.cumsum(seg_of, out=seg_of)
    tag = lines // n_sets
    span = int(tag.max()) + 1
    bound = n_segs * n_sets * span
    # (segment, set, tag) keys; lines - tag * n_sets is each line's set
    group = seg_of * n_sets + lines - tag * n_sets
    order = (_stable_order(group * span + tag, bound) if bound.bit_length() < 63
             else np.lexsort((tag, group)))
    # segments keep their places, so seg_of and acc_end hold for the
    # sorted accesses too
    line_s = lines[order]
    new_line = np.empty(n_total, dtype=bool)
    new_line[0] = True
    np.not_equal(line_s[1:], line_s[:-1], out=new_line[1:])
    new_line[acc_end[:-1]] = True
    starts = np.flatnonzero(new_line)
    stores = compiled.access_stores
    store_s = stores[order]
    how = np.logical_or.reduceat(store_s, starts).view(np.int8) + store_s[starts]
    at_last = np.zeros(n_total, dtype=np.int8)
    at_last[order[np.append(starts[1:], n_total) - 1]] = how + 1
    last = np.flatnonzero(at_last)
    d_line = line_s[starts]
    d_seg = seg_of[starts]
    d_set = d_line % n_sets
    new_set = np.empty(d_line.size, dtype=bool)
    new_set[0] = True
    np.not_equal(d_set[1:], d_set[:-1], out=new_set[1:])
    seg_d = np.searchsorted(d_seg, np.arange(n_segs + 1))
    new_set[seg_d[1:-1]] = True
    set_at = np.flatnonzero(new_set)
    seg_g = np.searchsorted(set_at, seg_d).tolist()
    set_end = np.append(set_at[1:], d_line.size)
    widest = np.maximum.reduceat(set_end - set_at, seg_g[:-1]).tolist()
    touched = d_set[set_at].tolist()
    ends = (set_end - seg_d[d_seg[set_at]]).tolist()
    seg_d = seg_d.tolist()
    acc = [0] + acc_end.tolist()
    st = [0] + np.searchsorted(np.flatnonzero(stores), acc_end).tolist()
    for k, (seg, c1) in enumerate(zip(segs, compiled.bulk_bounds[:, 1].tolist())):
        g0, g1 = seg_g[k], seg_g[k + 1]
        n = acc[k + 1] - acc[k]
        seg.plan = _Plan(touched[g0:g1], ends[g0:g1], widest[k], seg_d[k], seg_d[k + 1],
                         c1 - (len(seg.kinds) - n), c1, n, st[k + 1] - st[k])
    return d_line, lines[last], at_last[last] - 1


def _stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """The permutation that stably sorts non-negative ``keys`` below
    ``bound``: one plain sort of ``key << b | position`` where that fits
    in int64 (several times faster than numpy's stable argsort), else the
    stable argsort."""
    bits = max(keys.size - 1, 1).bit_length()
    if bound.bit_length() + bits > 62:
        return np.argsort(keys, kind="stable")
    return np.sort((keys << bits) | np.arange(keys.size)) & ((1 << bits) - 1)


def _private_mask(kinds, args, lengths, line_size):
    """``(private, shared)``: which ops are private work, and the sorted
    lines two or more threads access.

    The accesses come in thread order, so one stable sort by line puts
    them in ``(line, tid)`` order; a line is shared where its tid changes.
    """
    mem = (kinds == LOAD) | (kinds == STORE)
    lines = args[mem] // line_size
    tids = np.repeat(np.arange(len(lengths), dtype=np.int32), lengths)[mem]
    order = _stable_order(lines, int(lines.max(initial=0)) + 1)
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


# thread states: parked threads hold their next sync op in ``pk``/``pa``
_RUNNABLE, _PENDING, _AT_BARRIER, _WAIT_LOCK, _DONE = range(5)


_UNATTRIBUTED = "(unattributed)"


@dataclass(slots=True)
class _Thread:
    """Batch-scheduler bookkeeping for one thread.

    ``codes``/``args`` are its entry stream and ``ip`` the next entry; a
    parked thread's sync op is ``(pk, pa)``.  ``phase`` is the innermost
    open phase.  ``busy`` and ``bucket`` are that phase's busy-cycle map
    and protocol-event bucket, fetched on first use and dropped at every
    phase change, so an access pays no lookups after the phase's first
    one.
    """

    tid: int
    codes: list
    args: list
    labels: tuple
    denom: float
    ip: int = 0
    clock: int = 0
    state: int = _RUNNABLE
    pk: int = 0
    pa: int = 0
    phase_stack: list = field(default_factory=list)
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


class _PrivateWork:
    """One run's eager private work: the per-op loop (:meth:`run`) and
    the bulk settle (:meth:`settle`), with the state they share — the
    ``filled`` set (the in_l2 bits of private lines, which keep no
    directory entry) and each phase's protocol-event bucket, which the
    globally ordered accesses charge too (:meth:`bucket`).
    """

    def __init__(self, config: MachineConfig, coherence: CoherenceController,
                 compiled: BatchProgram, stats: PhaseStats):
        self.coherence = coherence
        self.stats = stats
        # protocol events land straight in their phase's bucket (the run's
        # totals are the buckets' sum); ``first_access`` holds each
        # phase's earliest load/store key, to restore the reference order
        self.phase_coherence: dict[str, CoherenceStats] = {}
        self.first_access: dict[str, tuple] = {}
        self.filled: set[int] = set()
        self.shared_lines = compiled.shared_lines
        self.hit_lat = config.l1d.hit_latency
        self.l2_lat = config.l2.hit_latency
        self.mem_lat = config.memory_latency
        self.line_size = config.line_size
        self.n_sets = n_sets = config.l1d.n_sets
        self.ways = config.l1d.ways
        self.l1_sets = [l1._sets for l1 in coherence.l1s]
        # request latency is deterministic per (core, home bank): an
        # uncontended bus is one bank at a fixed latency (ContendedBus is
        # gated upstream), a mesh reads its precomputed table
        interconnect = coherence.interconnect
        n_threads = len(compiled.thread_entries)
        if type(interconnect) is BusInterconnect:
            self.req_table = ((interconnect.latency,),) * n_threads
        else:
            self.req_table = interconnect.request_table
        self.n_banks = len(self.req_table[0])
        self.load_state = (_SHARED if config.coherence_protocol == "msi"
                           else _EXCLUSIVE)
        # L1 set indices that could ever hold a shared line: fills elsewhere
        # can skip the eviction-hazard scan with one membership test
        self.shared_set_idx = frozenset(l % n_sets for l in self.shared_lines)
        # the distinct-line arrays every planned segment indexes
        self.plan_arrays = _plan_settles(compiled, n_sets)
        self.compute_instr = compiled.compute_instr

    def bucket(self, ctx: _Thread, clock: int) -> CoherenceStats:
        """The thread's current-phase protocol-event bucket, for a load or
        store that starts at ``clock``.  A thread's clock never falls, so
        its first access in a phase entry is its earliest one there and
        later accesses reuse the cached bucket without a key check."""
        b = ctx.bucket
        if b is not None:
            return b
        phase = ctx.phase
        at = (clock, ctx.tid)
        b = self.phase_coherence.get(phase)
        if b is None:
            b = self.phase_coherence[phase] = CoherenceStats()
            self.first_access[phase] = at
        elif at < self.first_access[phase]:
            self.first_access[phase] = at
        ctx.bucket = b
        return b

    def settle(self, ctx: _Thread, seg: _Seg) -> bool:
        """Run a planned segment's accesses in bulk, in closed form.

        Takes the segment only when no L1 set it touches can overflow:
        the set's entries (INVALID ones too) plus the segment's lines not
        among them fit in its ways.  Then no fill evicts, so none can
        bail, and each line misses at most once, on its first access;
        hits, fills, upgrades, final states and LRU order follow from
        each line's first, last and stored accesses, and the charges are
        exactly the per-op loop's.  Otherwise returns False, touching
        nothing, and the caller runs that loop.
        """
        plan = seg.plan
        ways = self.ways
        l1_sets = self.l1_sets[ctx.tid]
        sets = [l1_sets[i] for i in plan.touched]
        d0, d1 = plan.d0, plan.d1
        by_set, by_last, how_of = self.plan_arrays
        # no set overflows when the fullest has room for the widest run;
        # otherwise count each crowded set's lines that are not in it
        if max(map(len, sets)) > ways - plan.widest:
            lines = by_set[d0:d1].tolist()
            lo = 0
            for s, hi in zip(sets, plan.ends):
                room = ways - len(s)
                if hi - lo > room and sum(x not in s for x in lines[lo:hi]) > room:
                    return False
                lo = hi

        req_row = self.req_table[ctx.tid]
        n_sets, n_banks = self.n_sets, self.n_banks
        load_state = self.load_state
        msi = load_state is _SHARED
        missed = []
        n_up = busy_req = 0
        # lines in last-access order: each one touched goes to the back
        for line, how in zip(by_last[d0:d1].tolist(), how_of[d0:d1].tolist()):
            s = l1_sets[line % n_sets]
            ent = s.get(line)
            if ent is not None and ent.state is not _INVALID:
                s.move_to_end(line)
                if how:
                    if ent.state is _SHARED:
                        n_up += 1
                        busy_req += req_row[line % n_banks]
                    ent.state = _MODIFIED
                continue
            if ent is not None:
                del s[line]
            missed.append(line)
            busy_req += req_row[line % n_banks]
            if how:
                # a load fill under MSI is S, so the later store upgrades
                if how == 1 and msi:
                    n_up += 1
                    busy_req += req_row[line % n_banks]
                s[line] = CacheLine(line, _MODIFIED)
            else:
                s[line] = CacheLine(line, load_state)

        n = plan.n
        n_miss = len(missed)
        n_mem = n_miss - len(self.filled.intersection(missed))
        self.filled.update(missed)
        cycles = np.ceil(self.compute_instr[plan.c0:plan.c1] / ctx.denom).astype(np.int64)
        busy = (int(cycles.sum()) + n * self.hit_lat + n_miss * self.l2_lat
                + n_mem * self.mem_lat + busy_req)
        n_stores = plan.n_stores
        l1 = self.coherence.l1s[ctx.tid]
        l1.hits += n - n_miss
        l1.misses += n_miss
        at = ctx.clock
        if seg.lead:
            at += int(cycles[:seg.lead].sum())
        b = self.bucket(ctx, at)
        b.reads += n - n_stores
        b.writes += n_stores
        b.l1_hits += n - n_miss
        b.l1_misses += n_miss
        b.l2_hits += n_miss - n_mem
        b.memory_fetches += n_mem
        b.upgrades += n_up
        ctx.charge_busy(self.stats, busy)
        ctx.clock += busy
        return True

    def run(self, ctx: _Thread, kinds, args, lead: int) -> int:
        """Run private ops one at a time through the inlined private-line
        protocol; returns the index of the op that bailed on an eviction
        hazard (everything before it charged), or -1."""
        tid = ctx.tid
        denom = ctx.denom
        l1 = self.coherence.l1s[tid]
        l1_sets = self.l1_sets[tid]
        req_row = self.req_table[tid]
        line_size, n_sets, ways, n_banks = self.line_size, self.n_sets, self.ways, self.n_banks
        hit_lat, l2_lat, mem_lat = self.hit_lat, self.l2_lat, self.mem_lat
        shared_lines, shared_set_idx = self.shared_lines, self.shared_set_idx
        filled, load_state = self.filled, self.load_state
        ceil = math.ceil
        busy = 0
        n_loads = 0
        n_stores = 0
        executed = 0
        bailed = -1
        # per-segment tallies, flushed to the phase bucket once
        d_l1h = d_l1m = d_l2h = d_mem = d_upg = d_wb = d_ev = 0
        for k, a in zip(kinds, args):
            if k == COMPUTE:
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
            hit = ent is not None and ent.state is not _INVALID
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
                if state is _MODIFIED:
                    busy += hit_lat
                elif state is _EXCLUSIVE:
                    ent.state = _MODIFIED
                    busy += hit_lat
                else:
                    # SHARED → upgrade; a private line has no
                    # remote sharers, so nothing to invalidate
                    d_upg += 1
                    busy += hit_lat + req_row[line % n_banks]
                    ent.state = _MODIFIED
                executed += 1
                continue
            # miss: bail if the fill could evict a shared line
            if (
                len(s) - (ent is not None) >= ways
                and set_idx in shared_set_idx
                and any(
                    la != line and ln.state is not _INVALID and la in shared_lines
                    for la, ln in s.items()
                )
            ):
                bailed = executed
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
                new_state = _MODIFIED
            # install, evicting the set's LRU valid line if full;
            # the victim is private (a shared victim bails above),
            # so its CacheLine object can be reused for the fill
            if ent is not None:
                del s[line]
            victim = None
            while len(s) >= ways:
                _, old = s.popitem(last=False)
                if old.state is not _INVALID:
                    victim = old
                    break
            if victim is not None:
                d_ev += 1
                if victim.state is _MODIFIED:
                    d_wb += 1
                    lat += req_row[victim.line_addr % n_banks]
                victim.line_addr = line
                victim.state = new_state
                s[line] = victim
            else:
                s[line] = CacheLine(line, new_state)
            busy += lat
            executed += 1
        if n_loads or n_stores:
            l1.hits += d_l1h
            l1.misses += d_l1m
            l1.evictions += d_ev
            at = ctx.clock
            if lead:
                at += sum(ceil(a / denom) for a in args[:lead])
            b = self.bucket(ctx, at)
            b.reads += n_loads
            b.writes += n_stores
            b.l1_hits += d_l1h
            b.l1_misses += d_l1m
            b.l2_hits += d_l2h
            b.memory_fetches += d_mem
            b.upgrades += d_upg
            b.writebacks += d_wb
        if busy:
            ctx.charge_busy(self.stats, busy)
            ctx.clock += busy
        return bailed


def run_batch(config: MachineConfig, program: TraceProgram):
    """Execute a program on the batch engine; returns a SimulationResult
    cycle- and stats-identical to the reference interpreter's."""
    from repro.simx.machine import DeadlockError, SimulationResult, TraceError

    # pinned dispatch: thread i runs on core i, so only n_threads L1s live
    coherence = CoherenceController(config, live_cores=program.n_threads)
    compiled = compile_batch(program, config.line_size)
    # each stream ends in an _END entry, so no loop tests its length; a
    # completed run retires the instruction counts the lowering totalled
    threads = [
        _Thread(tid=tid, codes=codes + [_END], args=args + [0], labels=labels,
                denom=config.core.effective_ipc * config.perf_factor(tid))
        for tid, ((codes, args), labels) in enumerate(
            zip(compiled.thread_entries, compiled.thread_labels))
    ]

    stats = PhaseStats()
    work = _PrivateWork(config, coherence, compiled, stats)
    # each phase's earliest PhaseBegin key, to restore the reference order
    first_begin: dict[str, tuple] = {}
    barrier_arrivals: dict[int, dict[int, int]] = {}
    lock_holder: dict[int, int] = {}
    lock_waiters: dict[int, list[int]] = {}
    # parked threads keyed ``(clock, tid)``: a parked clock never changes,
    # so an entry stays valid until its thread is dispatched
    heap: list[tuple[int, int]] = []
    burst_fallbacks = 0

    ceil = math.ceil
    read = coherence.read
    write = coherence.write
    bucket = work.bucket
    settle = work.settle
    run_private = work.run
    line_size = config.line_size

    def park_bailed(ctx: _Thread, i: int, kinds, args, j: int) -> None:
        """Park a thread whose private op ``j`` of entry ``i`` bailed: the
        op must run at its global order through the full protocol path;
        the rest of a segment resumes eagerly afterwards.  That path reads
        the directory entry the eager loop never kept: hand over L2
        residency, and drop the copy an earlier full-path fill may still
        record (the line is not in this L1).  The op fills the line."""
        nonlocal burst_fallbacks
        line = args[j] // line_size
        de = coherence._entry(line)
        de.in_l2 = line in work.filled
        de.owner = None
        de.sharers.discard(ctx.tid)
        work.filled.add(line)
        burst_fallbacks += 1
        ctx.pk = kinds[j]
        ctx.pa = args[j]
        if j + 1 < len(args):
            ctx.args[i] = _Seg.tail(ctx.args[i], j + 1)
        else:
            i += 1
        ctx.ip = i
        ctx.state = _PENDING
        heappush(heap, (ctx.clock, ctx.tid))

    def advance(ctx: _Thread) -> None:
        """Eagerly run a thread's entries until it parks or finishes."""
        codes = ctx.codes
        args = ctx.args
        i = ctx.ip
        tid = ctx.tid
        while True:
            c = codes[i]
            if LOAD <= c <= UNLOCK:
                # sync point: shared access, barrier, lock or unlock
                ctx.pk = c
                ctx.pa = args[i]
                ctx.ip = i + 1
                ctx.state = _PENDING
                heappush(heap, (ctx.clock, tid))
                return
            if c == COMPUTE:
                busy = ceil(args[i] / ctx.denom)
                if busy:
                    ctx.charge_busy(stats, busy)
                    ctx.clock += busy
            elif c == _SEG:
                seg = args[i]
                if seg.carr is not None:
                    # pure compute, long enough to price as one ceil-sum
                    busy = int(np.ceil(seg.carr / ctx.denom).sum())
                    ctx.charge_busy(stats, busy)
                    ctx.clock += busy
                elif seg.plan is None or not settle(ctx, seg):
                    j = run_private(ctx, seg.kinds, seg.args, seg.lead)
                    if j >= 0:
                        park_bailed(ctx, i, seg.kinds, seg.args, j)
                        return
            elif c >= _PRIVATE_LOAD:
                one = (c - _PRIVATE,), (args[i],)
                if run_private(ctx, *one, 0) >= 0:
                    park_bailed(ctx, i, *one, 0)
                    return
            elif c == PHASE_BEGIN:
                phase = ctx.labels[args[i]]
                ctx.enter(phase)
                stats.note_begin(phase, ctx.clock)
                at = (ctx.clock, tid, i)
                first_begin[phase] = min(first_begin.get(phase, at), at)
            elif c == PHASE_END:
                phase = ctx.labels[args[i]]
                if not ctx.phase_stack or ctx.phase_stack[-1] != phase:
                    raise TraceError(
                        f"thread {tid}: PhaseEnd({phase!r}) does not match "
                        f"open phases {ctx.phase_stack}"
                    )
                ctx.leave()
                stats.note_end(phase, ctx.clock)
            else:  # _END
                break
            i += 1
        ctx.ip = i
        held = sorted(lock for lock, holder in lock_holder.items() if holder == tid)
        if held:
            raise TraceError(f"thread {tid} finished holding locks {held}")
        if ctx.phase_stack:
            raise TraceError(
                f"thread {tid} finished inside phases {ctx.phase_stack}"
            )
        ctx.state = _DONE

    # epoch loop: eager-advance everyone, then run the parked sync ops in
    # the reference global order — the semantics of the reference
    # scheduler's ``step`` — through the full protocol path.  After an op
    # only the threads it made runnable re-advance, in ascending tid
    # order.  A thread left runnable alone runs on here instead: a lone
    # Compute is charged inline, and its next sync op goes back in as
    # ``key``, which heappushpop hands straight back while the thread is
    # still the heap minimum (the pop would pick it)
    for ctx in threads:
        advance(ctx)
    acquire = config.lock_acquire_latency
    key = None
    while key is not None or heap:
        clock, tid = heappop(heap) if key is None else heappushpop(heap, key)
        key = None
        ctx = threads[tid]
        k = ctx.pk
        a = ctx.pa
        if k <= STORE:  # a load or store
            b = ctx.bucket
            coherence.stats = b if b is not None else bucket(ctx, clock)
            cycles = read(tid, a, clock) if k == LOAD else write(tid, a, clock)
            if cycles:  # ctx.charge_busy, inlined
                busy = ctx.busy
                if busy is None:
                    busy = ctx.busy = stats.busy[ctx.phase]
                busy[tid] += cycles
                clock += cycles
                ctx.clock = clock
        elif k == LOCK:
            if a in lock_holder:
                lock_waiters.setdefault(a, []).append(tid)
                ctx.state = _WAIT_LOCK
                continue
            lock_holder[a] = tid
            ctx.charge_busy(stats, acquire)
            clock += acquire
            ctx.clock = clock
        elif k == UNLOCK:
            if lock_holder.get(a) != tid:
                raise TraceError(f"thread {tid} unlocked lock {a} it does not hold")
            del lock_holder[a]
            waiters = lock_waiters.get(a)
            if waiters:
                next_tid = waiters.pop(0)
                w = threads[next_tid]
                stats.add_wait(w.phase, next_tid, max(w.clock, clock) - w.clock)
                w.clock = max(w.clock, clock)
                lock_holder[a] = next_tid
                w.charge_busy(stats, acquire)
                w.clock += acquire
                for r in ((ctx, w) if tid < next_tid else (w, ctx)):
                    advance(r)
                continue
        else:  # BARRIER
            arrivals = barrier_arrivals.setdefault(a, {})
            if tid in arrivals:
                raise TraceError(f"thread {tid} hit barrier {a} twice before release")
            arrivals[tid] = clock
            ctx.state = _AT_BARRIER
            if len(arrivals) == program.n_threads:
                del barrier_arrivals[a]
                release = max(arrivals.values()) + config.barrier_release_latency
                for w, arrived_at in arrivals.items():
                    r = threads[w]
                    stats.add_wait(r.phase, w, release - arrived_at)
                    r.clock = release
                for w in sorted(arrivals):
                    advance(threads[w])
            continue
        # the thread runs on alone
        i = ctx.ip
        codes = ctx.codes
        c = codes[i]
        if c == COMPUTE:
            cycles = ceil(ctx.args[i] / ctx.denom)
            if cycles:
                ctx.charge_busy(stats, cycles)
                clock += cycles
                ctx.clock = clock
            i += 1
            c = codes[i]
        if LOAD <= c <= UNLOCK:
            ctx.pk = c
            ctx.pa = ctx.args[i]
            ctx.ip = i + 1
            key = (clock, tid)
        else:
            ctx.ip = i
            advance(ctx)
    if any(t.state != _DONE for t in threads):
        states = {_AT_BARRIER: "barrier", _WAIT_LOCK: "lock"}
        stuck = {t.tid: states[t.state] for t in threads if t.state != _DONE}
        raise DeadlockError(
            f"no runnable threads; blocked: {stuck} "
            f"(pending barriers: {list(barrier_arrivals)}, "
            f"held locks: {lock_holder})"
        )

    buckets = work.phase_coherence
    phase_coherence = dict(sorted(buckets.items(), key=lambda kv: work.first_access[kv[0]]))
    stats.spans = dict(sorted(stats.spans.items(), key=lambda kv: first_begin[kv[0]]))
    return SimulationResult(
        program_name=program.name,
        n_threads=program.n_threads,
        n_cores=config.n_cores,
        total_cycles=max(t.clock for t in threads),
        thread_cycles=tuple(t.clock for t in threads),
        phase_stats=stats,
        coherence=CoherenceStats.total(buckets.values()),
        instructions=compiled.thread_instructions,
        coherence_by_phase=phase_coherence,
        engine="batch",
        n_ops=compiled.n_ops,
        n_bursts=compiled.n_bursts,
        n_fused_ops=compiled.n_fused_ops,
        n_burst_fallbacks=burst_fallbacks,
    )
