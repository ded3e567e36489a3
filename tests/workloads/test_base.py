"""Direct unit tests for the workload base layer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.workloads.base import (
    PHASE_PARALLEL,
    PHASE_REDUCTION,
    ClusteringWorkloadBase,
    PhaseWork,
    WorkloadExecution,
)
from tests.workloads.conftest import instructions_by_phase, serial_instruction_fraction


class TestPartition:
    def test_even_split(self):
        slices = ClusteringWorkloadBase.partition(100, 4)
        assert [s.stop - s.start for s in slices] == [25, 25, 25, 25]

    def test_remainder_goes_to_first_threads(self):
        slices = ClusteringWorkloadBase.partition(10, 3)
        assert [s.stop - s.start for s in slices] == [4, 3, 3]

    def test_contiguous_and_complete(self):
        slices = ClusteringWorkloadBase.partition(17, 5)
        assert slices[0].start == 0
        assert slices[-1].stop == 17
        for a, b in zip(slices, slices[1:]):
            assert a.stop == b.start

    @given(
        n=st.integers(min_value=0, max_value=10000),
        p=st.integers(min_value=1, max_value=64),
    )
    def test_partition_properties(self, n, p):
        slices = ClusteringWorkloadBase.partition(n, p)
        sizes = [s.stop - s.start for s in slices]
        assert len(slices) == p
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1  # balanced

    def test_counts_match_partition(self):
        counts = ClusteringWorkloadBase.per_thread_counts(11, 4)
        assert list(counts) == [3, 3, 3, 2]

    def test_zero_threads_rejected(self):
        with pytest.raises(ValueError):
            ClusteringWorkloadBase.partition(10, 0)


class TestPhaseWork:
    def test_totals(self):
        w = PhaseWork(
            phase=PHASE_PARALLEL,
            per_thread_instructions=(10, 20),
            per_thread_reads=(1, 2),
            per_thread_writes=(3, 4),
        )
        assert w.n_threads == 2
        assert not w.is_serial()

    def test_reduction_is_serial_phase(self):
        w = PhaseWork(
            phase=PHASE_REDUCTION,
            per_thread_instructions=(10,),
            per_thread_reads=(0,),
            per_thread_writes=(0,),
        )
        assert w.is_serial()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PhaseWork(
                phase=PHASE_PARALLEL,
                per_thread_instructions=(1, 2),
                per_thread_reads=(1,),
                per_thread_writes=(1, 2),
            )

    def test_unknown_phase_rejected(self):
        with pytest.raises(ValueError):
            PhaseWork(
                phase="warmup",
                per_thread_instructions=(1,),
                per_thread_reads=(0,),
                per_thread_writes=(0,),
            )


class TestWorkloadExecution:
    def _work(self, phase, instr):
        return PhaseWork(
            phase=phase,
            per_thread_instructions=instr,
            per_thread_reads=tuple(0 for _ in instr),
            per_thread_writes=tuple(0 for _ in instr),
        )

    def test_add_checks_thread_count(self):
        ex = WorkloadExecution(workload="w", n_threads=2, n_iterations=1)
        with pytest.raises(ValueError):
            ex.add(self._work(PHASE_PARALLEL, (1, 2, 3)))

    def test_instructions_by_phase(self):
        ex = WorkloadExecution(workload="w", n_threads=2, n_iterations=1)
        ex.add(self._work(PHASE_PARALLEL, (100, 100)))
        ex.add(self._work(PHASE_REDUCTION, (50, 0)))
        ex.add(self._work(PHASE_PARALLEL, (10, 10)))
        by_phase = instructions_by_phase(ex)
        assert by_phase[PHASE_PARALLEL] == 220
        assert by_phase[PHASE_REDUCTION] == 50

    def test_serial_instruction_fraction(self):
        ex = WorkloadExecution(workload="w", n_threads=1, n_iterations=1)
        ex.add(self._work(PHASE_PARALLEL, (900,)))
        ex.add(self._work(PHASE_REDUCTION, (100,)))
        assert serial_instruction_fraction(ex) == pytest.approx(0.1)

    def test_empty_execution_fraction_zero(self):
        ex = WorkloadExecution(workload="w", n_threads=1, n_iterations=0)
        assert serial_instruction_fraction(ex) == 0.0
