"""The columnar trace generator against its frozen object-building oracle.

:class:`repro.workloads.tracegen.TraceGenerator` builds each thread's
trace as integer columns; ``tests/workloads/reference_tracegen.py`` is the
generator as it stood before, one op object at a time.  Every test here
demands that the columnar program's materialised ops equal the oracle's,
op for op, thread for thread, with the same name and metadata.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.registry import EXPERIMENTS, declare_units
from repro.pipeline.builders import SWEEP_POINT
from repro.simx.trace import Compute, Load, Store
from repro.workloads.base import (
    PHASE_INIT,
    PHASE_PARALLEL,
    PHASE_REDUCTION,
    PHASE_SERIAL,
    PhaseWork,
    WorkloadExecution,
)
from repro.workloads.tracegen import AddressMap, TraceGenerator
from tests.workloads import reference_tracegen


def assert_same_program(execution, chunks=8, mem_scale=1, data_stride=None):
    layout = {} if data_stride is None else {"data_stride": data_stride}
    got = TraceGenerator(AddressMap(**layout), chunks, mem_scale).program(execution)
    want = reference_tracegen.TraceGenerator(
        reference_tracegen.AddressMap(**layout), chunks, mem_scale
    ).program(execution)
    assert got.name == want.name
    assert got.metadata == want.metadata
    assert [t.thread_id for t in got.threads] == [t.thread_id for t in want.threads]
    for g, w in zip(got.threads, want.threads):
        assert g.ops == list(w.ops), f"thread {g.thread_id} differs"
    return got


def runall_sweep_points():
    """The distinct simulator sweep points a default ``runall`` declares."""
    points = {}
    for eid in sorted(EXPERIMENTS):
        if eid.startswith("ablation-"):
            continue
        for unit in declare_units(eid):
            if unit.kind == SWEEP_POINT:
                points.setdefault(unit.key, unit.spec)
    return list(points.values())


class TestRunallSweepPoints:
    def test_every_declared_sweep_point_matches_the_oracle(self):
        points = runall_sweep_points()
        shapes = {(w.name, p, m) for w, p, m, _ in points}
        # kmeans, fuzzy, hop and histogram, every thread count and both
        # mem_scales that runall declares
        assert {name for name, _, _ in shapes} == {"kmeans", "fuzzy", "hop", "histogram"}
        assert {p for _, p, _ in shapes} == {1, 2, 4, 8, 16}
        assert {m for _, _, m in shapes} == {2, 4}
        executions = {}
        for workload, p, mem_scale, _ in points:
            key = (id(workload), p)
            if key not in executions:
                executions[key] = workload.execute(p)
            assert_same_program(executions[key], mem_scale=mem_scale)


# ── randomized executions ─────────────────────────────────────────────────


@st.composite
def executions(draw):
    n_threads = draw(st.integers(min_value=1, max_value=16))
    n_phases = draw(st.integers(min_value=0, max_value=5))
    ex = WorkloadExecution(workload="synthetic", n_threads=n_threads, n_iterations=1)
    for _ in range(n_phases):
        phase = draw(st.sampled_from(
            [PHASE_INIT, PHASE_PARALLEL, PHASE_REDUCTION, PHASE_SERIAL]
        ))
        if draw(st.integers(min_value=0, max_value=4)) == 0:  # all-zero phase
            zero = (0,) * n_threads
            ex.add(PhaseWork(phase, zero, zero, zero, zero))
            continue
        counts = st.integers(min_value=0, max_value=400)
        instr = tuple(draw(st.integers(min_value=0, max_value=5000))
                      for _ in range(n_threads))
        reads = tuple(draw(counts) for _ in range(n_threads))
        writes = tuple(draw(counts) for _ in range(n_threads))
        shared = tuple(draw(st.integers(min_value=0, max_value=r)) for r in reads)
        ex.add(PhaseWork(phase, instr, reads, writes,
                         shared if draw(st.booleans()) else ()))
    return ex


class TestRandomizedExecutions:
    @given(
        ex=executions(),
        chunks=st.integers(min_value=1, max_value=16),
        mem_scale=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_columnar_program_equals_the_oracle(self, ex, chunks, mem_scale):
        assert_same_program(ex, chunks, mem_scale)

    @given(ex=executions(), chunks=st.integers(min_value=1, max_value=16))
    @settings(max_examples=75, deadline=None)
    def test_data_cursor_wrapping_past_half_the_stride(self, ex, chunks):
        # a 2 KiB data region: the cursor wraps every 16 lines
        assert_same_program(ex, chunks, data_stride=0x1000)


# ── the edges a first columnar prototype got wrong ────────────────────────


class TestEdges:
    def test_a_thread_with_no_ops(self):
        ex = WorkloadExecution(workload="idle", n_threads=1, n_iterations=1)
        ex.add(PhaseWork(PHASE_SERIAL, (0,), (0,), (0,)))
        prog = assert_same_program(ex)
        assert prog.threads[0].ops == []
        assert len(prog.threads[0].columns()[0]) == 0

    def test_a_program_with_no_loads_or_stores(self):
        ex = WorkloadExecution(workload="compute", n_threads=3, n_iterations=1)
        ex.add(PhaseWork(PHASE_PARALLEL, (100, 7, 0), (0, 0, 0), (0, 0, 0)))
        ex.add(PhaseWork(PHASE_SERIAL, (50, 0, 0), (0, 0, 0), (0, 0, 0)))
        prog = assert_same_program(ex)
        ops = [op for t in prog.threads for op in t.ops]
        assert not any(isinstance(op, (Load, Store)) for op in ops)
        assert any(isinstance(op, Compute) for op in ops)

    def test_an_execution_with_no_phases(self):
        ex = WorkloadExecution(workload="empty", n_threads=2, n_iterations=0)
        assert_same_program(ex)

    @pytest.mark.parametrize("n_threads", [1, 2, 5])
    def test_shared_reads_of_every_size(self, n_threads):
        for shared in (1, 8, 9, 64 * (n_threads - 1) + 8, 700):
            ex = WorkloadExecution(workload="merge", n_threads=n_threads,
                                   n_iterations=1)
            ex.add(PhaseWork(PHASE_REDUCTION, (10,) * n_threads,
                             (shared,) * n_threads, (0,) * n_threads,
                             (shared,) * n_threads))
            assert_same_program(ex)
