"""Lockstep batch execution: per-thread private segments between sync points.

The reference interpreter in :mod:`repro.simx.machine` advances one
operation at a time, paying Python dispatch, a coherence-stats snapshot
and a scheduler pass per op.  This module removes the scheduler from
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
  with many accesses whose touched L1 sets hold only this thread's
  valid private lines, and whose replay costs less than its ops, is
  *settled in bulk*: numpy replays each touched set's LRU stack
  (Mattson et al.'s stack-distance view: one round per visit to a set,
  every set at once) and derives hits, fills, victims, writebacks and
  upgrades from it; any other segment runs the per-op inlined
  private-line protocol (L1 hit, or miss filled from L2/memory);
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
  A set holding no shared line at a segment's entry holds none until its
  end, which is why the bulk settle needs no per-op check;
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
from collections import OrderedDict
from dataclasses import astuple, dataclass, field
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
#: what the bulk settle costs, in per-op loop iterations (measured on
#: runall and simx-merge segments): each LRU round, each touched set and
#: each line resident in one at entry.  A segment settles in bulk only
#: while these sum to at most its op count.
_ROUND_COST = 200
_SET_COST = 4
_LINE_COST = 4

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
#: L1 states as small ints in the bulk settle's state matrix
_M, _E, _S = 0, 1, 2
_STATES = (_MODIFIED, _EXCLUSIVE, _SHARED)
_STATE_CODE = {s: c for c, s in enumerate(_STATES)}
#: the LRU age of an empty way: older than any line, so it fills first
_EMPTY_AGE = -(1 << 62)


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

    ``kinds[j]`` / ``args[j]`` drive the per-op loop without isinstance
    dispatch; they are plain lists because indexing numpy per op is
    slow.  ``lead`` counts the compute ops before the first load/store
    (all of them in a pure-compute segment).  Pure-compute segments of
    ``_VEC_MIN`` ops or more carry their instruction counts as a float
    array (``carr``) so the whole run prices as one vectorised ceil-sum.
    A segment of ``_BULK_MIN`` accesses or more is listed in
    :attr:`BatchProgram.bulk_segments`, and a run gives it a ``plan``
    (:class:`_Plan`) when the bulk settle may take it.
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
    """What a segment's bulk settle knows before it runs: the L1 sets it
    touches (``touched``, ascending) and those of them that can hold a
    shared line (``risky``), its visits' slice ``[v0, v1)`` of the run's
    visit arrays with each LRU round's start in ``rounds``, its slice
    ``[c0, c1)`` of the compute counts, its access and store counts, and
    the op budget left for resident lines (``slack``)."""

    __slots__ = ("touched", "risky", "v0", "v1", "rounds", "c0", "c1", "n",
                 "n_stores", "slack")

    def __init__(self, touched, risky, v0, v1, rounds, c0, c1, n, n_stores, slack):
        self.touched = touched
        self.risky = risky
        self.slack = slack
        self.v0 = v0
        self.v1 = v1
        self.rounds = rounds
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


def _plan_settles(compiled: BatchProgram, n_sets: int, n_banks: int,
                  shared_sets: frozenset):
    """Give every bulk segment the static half of its settle, computed for
    all of them at once; returns the visit arrays the plans slice.

    A segment's accesses are grouped by L1 set, in time order within a
    set.  A *visit* is a run of accesses to one line with no other line of
    its set between them: only its first access can miss or reorder the
    set, so the LRU replay steps visit by visit.  Round ``t`` of the
    replay applies the ``t``-th visit of every touched set, so the visit
    arrays are ordered by (segment, round, set).  A segment whose rounds
    and touched sets cost more than its ops (``_ROUND_COST``,
    ``_SET_COST``) gets no plan.  ``shared_sets`` are the L1 set indices
    any shared line maps to.
    """
    segs = compiled.bulk_segments
    lines = compiled.access_lines
    n_total = lines.size
    if not n_total:
        return None
    acc_end = compiled.bulk_bounds[:, 0]
    acc_start = np.concatenate(([0], acc_end[:-1]))
    seg_of = np.repeat(np.arange(len(segs)), acc_end - acc_start)
    key = seg_of * n_sets + lines % n_sets
    order = _stable_order(key, len(segs) * n_sets)
    key = key[order]
    line_s = lines[order]
    store_s = compiled.access_stores[order]
    new_set = np.empty(n_total, dtype=bool)
    new_set[0] = True
    np.not_equal(key[1:], key[:-1], out=new_set[1:])
    head = new_set.copy()
    head[1:] |= line_s[1:] != line_s[:-1]
    visits = np.flatnonzero(head)
    group = np.cumsum(new_set)[visits] - 1
    group_first = np.flatnonzero(new_set[visits])
    rank = np.arange(visits.size) - np.repeat(group_first, np.diff(
        np.append(group_first, visits.size)))
    v_seg = seg_of[order[visits]]
    seg_group0 = group[np.searchsorted(v_seg, np.arange(len(segs)))]
    n_ranks = int(rank.max()) + 1
    round_key = v_seg * n_ranks + rank
    by_round = _stable_order(round_key, len(segs) * n_ranks)
    round_key = round_key[by_round]
    round_starts = np.flatnonzero(np.diff(round_key, prepend=-1))
    seg_v = np.searchsorted(v_seg, np.arange(len(segs) + 1))
    seg_r = np.searchsorted(round_starts, seg_v)
    touched = (key[new_set] % n_sets).tolist()
    n_groups = np.append(seg_group0[1:], len(touched)) - seg_group0
    stores_end = np.cumsum(compiled.access_stores)[acc_end - 1]
    n_stores = np.diff(stores_end, prepend=0)
    comp_end = compiled.bulk_bounds[:, 1]
    round_starts = round_starts.tolist() + [visits.size]
    for seg, g0, ng, v0, v1, r0, r1, c1, n, ns in zip(
        segs, seg_group0.tolist(), n_groups.tolist(), seg_v[:-1].tolist(),
        seg_v[1:].tolist(), seg_r[:-1].tolist(), seg_r[1:].tolist(),
        comp_end.tolist(), (acc_end - acc_start).tolist(), n_stores.tolist(),
    ):
        slack = len(seg.kinds) - (r1 - r0) * _ROUND_COST - ng * _SET_COST
        if slack >= 0:
            sets = touched[g0:g0 + ng]
            seg.plan = _Plan(sets, [i for i in sets if i in shared_sets], v0, v1,
                             round_starts[r0:r1 + 1], c1 - (len(seg.kinds) - n), c1,
                             n, ns, slack)
    v_line = line_s[visits][by_round]
    return (
        v_line,
        (group - seg_group0[v_seg])[by_round],
        order[visits][by_round],
        np.logical_or.reduceat(store_s, visits)[by_round],
        store_s[visits][by_round],
        v_line % n_banks,
    )


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
        self.req_arrs = [np.array(row, dtype=np.int64) for row in self.req_table]
        self.n_banks = len(self.req_table[0])
        self.load_state = (_SHARED if config.coherence_protocol == "msi"
                           else _EXCLUSIVE)
        self.load_code = _STATE_CODE[self.load_state]
        # L1 set indices that could ever hold a shared line: fills elsewhere
        # can skip the eviction-hazard scan with one membership test
        self.shared_set_idx = frozenset(l % n_sets for l in self.shared_lines)
        # the bulk settle's visit arrays, for every planned segment at once
        self.visit_arrays = _plan_settles(compiled, n_sets, self.n_banks,
                                          self.shared_set_idx)
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
        """Run a planned segment's accesses in bulk, by LRU stack replay.

        Returns False, touching nothing, when a touched L1 set holds a
        shared line or an INVALID entry (a fill could then bail), or holds
        more lines than the plan's slack pays for; the caller runs the
        per-op loop instead.  Otherwise charges exactly what that loop
        would.
        """
        plan = seg.plan
        touched = plan.touched
        ways = self.ways
        l1_sets = self.l1_sets[ctx.tid]
        for i in plan.risky:
            if not self.shared_lines.isdisjoint(l1_sets[i]):
                return False
        residents = [l1_sets[i] for i in touched]
        counts = list(map(len, residents))
        if sum(counts) * _LINE_COST > plan.slack:
            return False
        # the touched sets' current contents, oldest first
        keys: list = []
        states: list = []
        for s in residents:
            if s:
                keys.extend(s)
                states.extend([ln.state for ln in s.values()])
        if _INVALID in states:
            return False
        n_touched = len(touched)
        tag = np.full((n_touched, ways), -1, dtype=np.int64)
        age = np.full((n_touched, ways), _EMPTY_AGE, dtype=np.int64)
        st = np.zeros((n_touched, ways), dtype=np.int8)
        codes = [_STATE_CODE[x] for x in states]
        if keys:
            counts = np.array(counts)
            row = np.repeat(np.arange(n_touched), counts)
            col = np.arange(row.size) - np.repeat(np.cumsum(counts) - counts, counts)
            tag[row, col] = keys
            age[row, col] = col - ways
            st[row, col] = codes

        # the replay: round t applies the t-th visit of every touched set
        v0, v1 = plan.v0, plan.v1
        v_line, v_group, v_time, v_store, v_head_store, v_bank = (
            a[v0:v1] for a in self.visit_arrays)
        n_visits = v1 - v0
        hit = np.empty(n_visits, dtype=bool)
        prior = np.empty(n_visits, dtype=np.int8)
        victim = np.empty(n_visits, dtype=np.int64)
        rounds = plan.rounds
        load_code = self.load_code
        for a, b in zip(rounds, rounds[1:]):
            a -= v0
            b -= v0
            g = v_group[a:b]
            x = v_line[a:b]
            ways_of = tag[g]
            match = ways_of == x[:, None]
            h = match.any(axis=1)
            slot = np.where(h, match.argmax(axis=1), age[g].argmin(axis=1))
            old = st[g, slot]
            hit[a:b] = h
            prior[a:b] = old
            victim[a:b] = np.where(h, -1, ways_of[np.arange(b - a), slot])
            tag[g, slot] = x
            age[g, slot] = v_time[a:b]
            st[g, slot] = np.where(v_store[a:b], _M, np.where(h, old, load_code))

        miss = ~hit
        n = plan.n
        n_miss = int(np.count_nonzero(miss))
        req = self.req_arrs[ctx.tid]
        evicted = miss & (victim >= 0)
        n_ev = int(np.count_nonzero(evicted))
        busy_req = int(req[v_bank[miss]].sum())
        n_wb = n_up = 0
        missed = v_line[miss]
        if n_ev:
            dirty = evicted & (prior == _M)
            n_wb = int(np.count_nonzero(dirty))
            busy_req += int(req[victim[dirty] % self.n_banks].sum())
            # an evicted line can miss again: count each line once
            missed = np.sort(missed)
            missed = missed[np.append(True, missed[1:] != missed[:-1])]
        if load_code == _S or _S in codes:
            # a store finds S (an upgrade) when its visit hit an S line,
            # or filled one under MSI before its first store
            upgrade = v_store & np.where(hit, prior == _S,
                                         ~v_head_store & (load_code == _S))
            n_up = int(np.count_nonzero(upgrade))
            busy_req += int(req[v_bank[upgrade]].sum())
        missed = missed.tolist()
        n_mem = len(missed) - len(self.filled.intersection(missed))
        self.filled.update(missed)
        cycles = np.ceil(self.compute_instr[plan.c0:plan.c1] / ctx.denom).astype(np.int64)
        busy = (int(cycles.sum()) + n * self.hit_lat + n_miss * self.l2_lat
                + n_mem * self.mem_lat + busy_req)

        # write the touched sets back, oldest line first
        by_age = np.argsort(age, axis=1)
        tag = np.take_along_axis(tag, by_age, axis=1)
        valid = tag >= 0
        prev = -1
        for r, line, c in zip(np.nonzero(valid)[0].tolist(), tag[valid].tolist(),
                              np.take_along_axis(st, by_age, axis=1)[valid].tolist()):
            if r != prev:
                prev = r
                od = l1_sets[touched[r]] = OrderedDict()
            od[line] = CacheLine(line, _STATES[c])

        n_stores = plan.n_stores
        n_loads = n - n_stores
        l1 = self.coherence.l1s[ctx.tid]
        l1.hits += n - n_miss
        l1.misses += n_miss
        l1.evictions += n_ev
        at = ctx.clock
        if seg.lead:
            at += int(cycles[:seg.lead].sum())
        b = self.bucket(ctx, at)
        b.reads += n_loads
        b.writes += n_stores
        b.l1_hits += n - n_miss
        b.l1_misses += n_miss
        b.l2_hits += n_miss - n_mem
        b.memory_fetches += n_mem
        b.upgrades += n_up
        b.writebacks += n_wb
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

    coherence = CoherenceController(config)
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
    totals = CoherenceStats(*map(sum, zip(*map(astuple, buckets.values()))))
    phase_coherence = dict(sorted(buckets.items(), key=lambda kv: work.first_access[kv[0]]))
    stats.spans = dict(sorted(stats.spans.items(), key=lambda kv: first_begin[kv[0]]))
    return SimulationResult(
        program_name=program.name,
        n_threads=program.n_threads,
        n_cores=config.n_cores,
        total_cycles=max(t.clock for t in threads),
        thread_cycles=tuple(t.clock for t in threads),
        phase_stats=stats,
        coherence=totals,
        instructions=compiled.thread_instructions,
        coherence_by_phase=phase_coherence,
        engine="batch",
        n_ops=compiled.n_ops,
        n_bursts=compiled.n_bursts,
        n_fused_ops=compiled.n_fused_ops,
        n_burst_fallbacks=burst_fallbacks,
    )
