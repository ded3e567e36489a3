"""Compile a workload execution into a simulator trace program.

Each :class:`~repro.workloads.base.PhaseWork` record becomes a fork-join
region: every thread executes its share of the phase's work (compute bursts
interleaved with cache-line-granular loads and stores against a
per-thread/per-purpose address map), then all threads meet at a barrier.

The address map is what makes the merging phase expensive *in the
simulator* rather than by fiat: during the parallel phase each thread
stores its partial results into its own region; during a serial reduction
the master loads those same lines — lines last written by other cores, so
the MESI protocol turns each into a coherence miss with a cache-to-cache
transfer, exactly the memory behaviour the paper attributes hop's
superlinear merge growth to.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from repro.simx.trace import (
    BARRIER,
    COMPUTE,
    LOAD,
    PHASE_BEGIN,
    PHASE_END,
    STORE,
    ThreadTrace,
    TraceProgram,
)
from repro.workloads.base import PhaseWork, WorkloadExecution

__all__ = ["AddressMap", "TraceGenerator", "program_from_execution"]

_LINE = 64
_ELEM_BYTES = 8  # float64


@dataclass(frozen=True)
class AddressMap:
    """Region layout for one simulated process.

    Each thread owns a private data region (its point partition) and a
    partials region (its privatised reduction buffers); globals (centers,
    group tables) are shared.  Regions are sized generously so they never
    alias.
    """

    data_base: int = 0x1000_0000
    data_stride: int = 0x0100_0000      # per-thread point partition
    partials_base: int = 0x2000_0000
    partials_stride: int = 0x0002_0000  # per-thread partial buffers
    globals_base: int = 0x3000_0000

    def data_region(self, tid: int) -> int:
        return self.data_base + tid * self.data_stride

    def partials_region(self, tid: int) -> int:
        return self.partials_base + tid * self.partials_stride


def _lines_for(elements: int) -> int:
    """Cache lines touched by ``elements`` contiguous float64 reads."""
    return max(0, math.ceil(elements * _ELEM_BYTES / _LINE))


#: every thread's first piece, so a thread with no ops still concatenates
_EMPTY = (np.empty(0, dtype=np.int8), np.empty(0, dtype=np.int64))
_BARRIER = np.array([BARRIER], dtype=np.int8)


@functools.lru_cache(maxsize=256)
def _ring(n: int) -> np.ndarray:
    """Offsets of ``n`` lines walking a 64-line partial buffer, wrapping."""
    return _frozen(np.arange(n) % 64 * _LINE)


@functools.lru_cache(maxsize=256)
def _chunk_stores(n_chunks: int, per_chunk: int) -> np.ndarray:
    """Partial-buffer offsets of the chunked stores, one row per chunk:
    chunk ``c`` walks copy ``c % 4`` of the thread's 64-line buffer."""
    return _frozen(_ring(per_chunk) + (np.arange(n_chunks) % 4 * (64 * _LINE))[:, None])


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array``, read-only: the caches above hand out shared arrays."""
    array.flags.writeable = False
    return array


class TraceGenerator:
    """Builds :class:`~repro.simx.trace.TraceProgram` objects from
    workload executions, each thread as integer columns.

    Parameters
    ----------
    address_map:
        Region layout (default layout suits all bundled workloads).
    chunks:
        How many (memory, compute) interleavings to emit per phase per
        thread — more chunks model a tighter loop, fewer make shorter
        traces.
    mem_scale:
        Optional down-sampling of memory operations: with ``mem_scale=4``
        only every 4th cache line is touched and compute is untouched.
        Keeps big-dataset traces tractable; 1 (default) is exact.
    """

    def __init__(
        self,
        address_map: "AddressMap | None" = None,
        chunks: int = 8,
        mem_scale: int = 1,
    ):
        if chunks < 1:
            raise ValueError(f"chunks must be >= 1, got {chunks}")
        if mem_scale < 1:
            raise ValueError(f"mem_scale must be >= 1, got {mem_scale}")
        self.amap = address_map or AddressMap()
        self.chunks = chunks
        self.mem_scale = mem_scale

    # ── per-phase op emission ─────────────────────────────────────────────
    def _phase_columns(
        self,
        work: PhaseWork,
        tid: int,
        n_threads: int,
        data_cursor: list[int],
        iteration: int,
        label: int,
    ) -> "tuple[np.ndarray, np.ndarray] | None":
        """One thread's ``(kinds, args)`` for one phase; None if it has no
        work there.

        In op order: ``PhaseBegin``; ``chunks`` rows of (loads, stores,
        one compute); the leftover compute, loads and stores; the shared
        reads; ``PhaseEnd``.
        """
        amap = self.amap
        instr = work.per_thread_instructions[tid]
        reads = work.per_thread_reads[tid] // self.mem_scale
        writes = work.per_thread_writes[tid] // self.mem_scale
        shared = (
            work.shared_reads[tid] // self.mem_scale if work.shared_reads else 0
        )
        if instr == 0 and reads == 0 and writes == 0 and shared == 0:
            return None

        read_lines = _lines_for(max(0, reads - shared))
        shared_lines = _lines_for(shared)
        write_lines = _lines_for(writes)
        n_chunks = self.chunks
        instr_per_chunk = instr // n_chunks
        reads_per_chunk = read_lines // n_chunks
        writes_per_chunk = write_lines // n_chunks
        rem_instr = instr - instr_per_chunk * n_chunks
        rem_writes = write_lines - writes_per_chunk * n_chunks
        width = reads_per_chunk + writes_per_chunk + (instr_per_chunk > 0)
        block = n_chunks * width
        size = 2 + block + (rem_instr > 0) + read_lines - reads_per_chunk * n_chunks
        size += rem_writes + shared_lines
        kinds = np.empty(size, dtype=np.int8)
        args = np.empty(size, dtype=np.int64)
        kinds[0], args[0] = PHASE_BEGIN, label
        kinds[-1], args[-1] = PHASE_END, label

        # private data reads stream through the thread's data region;
        # the cursor persists across phases so reuse hits in cache when the
        # working set fits (centers) and misses when it doesn't (points).
        cursor = data_cursor[tid]
        data_cursor[tid] = end = cursor + read_lines * _LINE
        loads = np.arange(cursor, end, _LINE) % (amap.data_stride // 2)
        loads += amap.data_region(tid)
        # partial buffers are small and revisited every iteration
        pbase = amap.partials_region(tid)
        chunked = reads_per_chunk * n_chunks
        if width:
            rows_k = kinds[1:1 + block].reshape(n_chunks, width)
            rows_a = args[1:1 + block].reshape(n_chunks, width)
            stores = slice(reads_per_chunk, reads_per_chunk + writes_per_chunk)
            rows_k[:, :reads_per_chunk] = LOAD
            rows_a[:, :reads_per_chunk] = loads[:chunked].reshape(n_chunks, reads_per_chunk)
            rows_k[:, stores] = STORE
            rows_a[:, stores] = pbase + _chunk_stores(n_chunks, writes_per_chunk)
            if instr_per_chunk:
                rows_k[:, -1] = COMPUTE
                rows_a[:, -1] = instr_per_chunk

        # leftovers
        at = 1 + block
        if rem_instr:
            kinds[at], args[at] = COMPUTE, rem_instr
            at += 1
        stop = at + read_lines - chunked
        if stop > at:
            kinds[at:stop] = LOAD
            args[at:stop] = loads[chunked:]
        if rem_writes:
            at, stop = stop, stop + rem_writes
            kinds[at:stop] = STORE
            args[at:stop] = pbase + _ring(rem_writes)

        # shared reads: walk the *other* threads' partials regions — these
        # lines were written by other cores, so they coherence-miss.  The
        # owners take turns (1, 2, …, n-1, 0, 1, … skipping tid), each
        # giving ``per_owner`` lines from the start of its buffer.
        if shared_lines:
            if n_threads > 1:
                per_owner = max(1, shared_lines // (n_threads - 1))
                owners = [o % n_threads for o in range(1, n_threads + 1)
                          if o % n_threads != tid]
            else:
                per_owner, owners = shared_lines, [0]
            group, i = np.divmod(np.arange(shared_lines), per_owner)
            obase = amap.partials_base + amap.partials_stride * np.array(owners)
            kinds[stop:-1] = LOAD
            args[stop:-1] = (
                obase[group % len(owners)] + i % 64 * _LINE
                + iteration % 4 * 64 * _LINE
            )
        return kinds, args

    # ── program assembly ──────────────────────────────────────────────────
    def program(self, execution: WorkloadExecution) -> TraceProgram:
        """Compile an execution into a fork-join trace program."""
        n = execution.n_threads
        pieces: list[list] = [[_EMPTY] for _ in range(n)]
        data_cursor = [0] * n
        labels: dict[str, int] = {}
        iteration = 0
        for barrier_id, work in enumerate(execution.phases):
            if work.phase == "parallel":
                iteration += 1
            label = labels.setdefault(work.phase, len(labels))
            fence = (_BARRIER, np.array([barrier_id]))
            for tid in range(n):
                cols = self._phase_columns(work, tid, n, data_cursor, iteration, label)
                if cols is not None:
                    pieces[tid].append(cols)
                if n > 1:
                    pieces[tid].append(fence)
        names = tuple(labels)
        return TraceProgram(
            name=f"{execution.workload}@{n}",
            threads=[
                ThreadTrace.from_columns(
                    tid,
                    np.concatenate([k for k, _ in parts]),
                    np.concatenate([a for _, a in parts]),
                    names,
                )
                for tid, parts in enumerate(pieces)
            ],
            metadata={
                "workload": execution.workload,
                "n_threads": n,
                "n_iterations": execution.n_iterations,
            },
        )


def program_from_execution(
    execution: WorkloadExecution, mem_scale: int = 1
) -> TraceProgram:
    """One-call helper: compile with default layout and chunking."""
    return TraceGenerator(mem_scale=mem_scale).program(execution)
