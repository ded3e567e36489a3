"""A frozen copy of the object-building trace generator, as a test-only oracle.

:mod:`repro.workloads.tracegen` emits each thread's trace as integer
columns built with numpy.  This module keeps the generator exactly as it
stood before that rewrite: one :class:`~repro.simx.trace.TraceOp` object
per operation, appended in loops.  ``tests/workloads/test_tracegen_oracle.py``
demands that the columnar generator's materialised ops equal this one's,
op for op.

Do not optimise or "fix" this file: its value is that it does not change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.simx.trace import (
    Barrier,
    Compute,
    Load,
    Op,
    PhaseBegin,
    PhaseEnd,
    Store,
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


class TraceGenerator:
    """Builds :class:`~repro.simx.trace.TraceProgram` objects from
    workload executions.

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
    def _phase_ops(
        self,
        work: PhaseWork,
        tid: int,
        n_threads: int,
        data_cursor: list[int],
        iteration: int,
    ) -> list[Op]:
        instr = work.per_thread_instructions[tid]
        reads = work.per_thread_reads[tid] // self.mem_scale
        writes = work.per_thread_writes[tid] // self.mem_scale
        shared = (
            work.shared_reads[tid] // self.mem_scale if work.shared_reads else 0
        )
        if instr == 0 and reads == 0 and writes == 0 and shared == 0:
            return []

        read_lines = _lines_for(max(0, reads - shared))
        shared_lines = _lines_for(shared)
        write_lines = _lines_for(writes)

        ops: list[Op] = [PhaseBegin(work.phase)]
        n_chunks = self.chunks
        instr_per_chunk = instr // n_chunks
        reads_per_chunk = read_lines // n_chunks
        writes_per_chunk = write_lines // n_chunks

        # private data reads stream through the thread's data region;
        # the cursor persists across phases so reuse hits in cache when the
        # working set fits (centers) and misses when it doesn't (points).
        base = self.amap.data_region(tid)
        for c in range(n_chunks):
            for _ in range(reads_per_chunk):
                ops.append(Load(base + (data_cursor[tid] % (self.amap.data_stride // 2))))
                data_cursor[tid] += _LINE
            pbase = self.amap.partials_region(tid)
            for w in range(writes_per_chunk):
                # partial buffers are small and revisited every iteration
                ops.append(Store(pbase + (w % 64) * _LINE + (c % 4) * 64 * _LINE))
            if instr_per_chunk:
                ops.append(Compute(instr_per_chunk))

        # leftovers
        rem_instr = instr - instr_per_chunk * n_chunks
        if rem_instr:
            ops.append(Compute(rem_instr))
        for i in range(read_lines - reads_per_chunk * n_chunks):
            ops.append(Load(base + (data_cursor[tid] % (self.amap.data_stride // 2))))
            data_cursor[tid] += _LINE
        for w in range(write_lines - writes_per_chunk * n_chunks):
            ops.append(Store(self.amap.partials_region(tid) + (w % 64) * _LINE))

        # shared reads: walk the *other* threads' partials regions — these
        # lines were written by other cores, so they coherence-miss.
        if shared_lines:
            per_owner = max(1, shared_lines // max(1, n_threads - 1)) if n_threads > 1 else shared_lines
            emitted = 0
            owner = 0
            while emitted < shared_lines:
                if n_threads > 1:
                    owner = (owner + 1) % n_threads
                    if owner == tid:
                        continue
                obase = self.amap.partials_region(owner)
                for i in range(min(per_owner, shared_lines - emitted)):
                    ops.append(Load(obase + (i % 64) * _LINE + (iteration % 4) * 64 * _LINE))
                    emitted += 1
        ops.append(PhaseEnd(work.phase))
        return ops

    # ── program assembly ──────────────────────────────────────────────────
    def program(self, execution: WorkloadExecution) -> TraceProgram:
        """Compile an execution into a fork-join trace program."""
        n = execution.n_threads
        per_thread: list[list[Op]] = [[] for _ in range(n)]
        data_cursor = [0] * n
        barrier_id = 0
        iteration = 0
        for work in execution.phases:
            if work.phase == "parallel":
                iteration += 1
            for tid in range(n):
                per_thread[tid].extend(
                    self._phase_ops(work, tid, n, data_cursor, iteration)
                )
            if n > 1:
                for tid in range(n):
                    per_thread[tid].append(Barrier(barrier_id))
                barrier_id += 1
        return TraceProgram(
            name=f"{execution.workload}@{n}",
            threads=[ThreadTrace(tid, ops) for tid, ops in enumerate(per_thread)],
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
