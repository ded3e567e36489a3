"""Hypothesis property tests for trace generation: conservation laws."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simx.trace import Barrier, Compute, Load, Store
from repro.workloads.base import (
    PHASE_INIT,
    PHASE_PARALLEL,
    PHASE_REDUCTION,
    PHASE_SERIAL,
    PhaseWork,
    WorkloadExecution,
)
from repro.workloads.tracegen import TraceGenerator


@st.composite
def executions(draw):
    n_threads = draw(st.integers(min_value=1, max_value=6))
    n_phases = draw(st.integers(min_value=1, max_value=6))
    ex = WorkloadExecution(workload="synthetic", n_threads=n_threads, n_iterations=1)
    phases = [PHASE_INIT, PHASE_PARALLEL, PHASE_REDUCTION, PHASE_SERIAL]
    for _ in range(n_phases):
        phase = draw(st.sampled_from(phases))
        instr = tuple(
            draw(st.integers(min_value=0, max_value=5000)) for _ in range(n_threads)
        )
        reads = tuple(
            draw(st.integers(min_value=0, max_value=500)) for _ in range(n_threads)
        )
        writes = tuple(
            draw(st.integers(min_value=0, max_value=300)) for _ in range(n_threads)
        )
        shared = tuple(
            draw(st.integers(min_value=0, max_value=r)) for r in reads
        )
        ex.add(PhaseWork(
            phase=phase,
            per_thread_instructions=instr,
            per_thread_reads=reads,
            per_thread_writes=writes,
            shared_reads=shared,
        ))
    return ex


class TestConservation:
    @settings(max_examples=50, deadline=None)
    @given(ex=executions())
    def test_instructions_exactly_preserved(self, ex):
        prog = TraceGenerator().program(ex)
        emitted = sum(
            op.instructions
            for t in prog.threads for op in t.ops if isinstance(op, Compute)
        )
        expected = sum(sum(w.per_thread_instructions) for w in ex.phases)
        assert emitted == expected

    @settings(max_examples=50, deadline=None)
    @given(ex=executions())
    def test_memory_ops_track_line_counts(self, ex):
        """Loads+stores per thread equal the line-granular totals of the
        accounting (elements / 8 per line, split private/shared)."""
        prog = TraceGenerator().program(ex)
        for tid, t in enumerate(prog.threads):
            emitted = sum(
                1 for op in t.ops if isinstance(op, (Load, Store))
            )
            expected = 0
            for w in ex.phases:
                reads = w.per_thread_reads[tid]
                shared = w.shared_reads[tid] if w.shared_reads else 0
                writes = w.per_thread_writes[tid]
                if (
                    w.per_thread_instructions[tid] == 0
                    and reads == 0 and writes == 0 and shared == 0
                ):
                    continue
                expected += math.ceil(max(0, reads - shared) * 8 / 64)
                expected += math.ceil(shared * 8 / 64)
                expected += math.ceil(writes * 8 / 64)
            assert emitted == expected, f"thread {tid}"

    @settings(max_examples=50, deadline=None)
    @given(ex=executions())
    def test_barrier_structure(self, ex):
        prog = TraceGenerator().program(ex)
        for t in prog.threads:
            barriers = [op.barrier_id for op in t.ops if isinstance(op, Barrier)]
            if ex.n_threads == 1:
                assert barriers == []
            else:
                assert barriers == list(range(len(ex.phases)))

    @settings(max_examples=25, deadline=None)
    @given(ex=executions())
    def test_generated_programs_always_run(self, ex):
        from repro.simx import Machine, MachineConfig

        prog = TraceGenerator(mem_scale=4).program(ex)
        res = Machine(MachineConfig.baseline(n_cores=ex.n_threads)).run(prog)
        assert res.total_cycles >= 0
