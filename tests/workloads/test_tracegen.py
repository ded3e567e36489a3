"""Unit tests for trace generation from workload executions."""

import pytest

from repro.simx.trace import Barrier, Compute, Load, PhaseBegin, PhaseEnd, Store
from repro.workloads.datasets import make_blobs
from repro.workloads.kmeans import KMeansWorkload
from repro.workloads.tracegen import AddressMap, TraceGenerator, program_from_execution


@pytest.fixture(scope="module")
def execution():
    ds = make_blobs(400, 5, 4, seed=2)
    return KMeansWorkload(ds, max_iterations=2, tolerance=1e-12).execute(4)


@pytest.fixture(scope="module")
def single_thread_execution():
    ds = make_blobs(400, 5, 4, seed=2)
    return KMeansWorkload(ds, max_iterations=2, tolerance=1e-12).execute(1)


class TestProgramShape:
    def test_thread_count_matches(self, execution):
        prog = program_from_execution(execution)
        assert prog.n_threads == 4

    def test_metadata(self, execution):
        prog = program_from_execution(execution)
        assert prog.metadata["workload"] == "kmeans"
        assert prog.metadata["n_iterations"] == 2

    def test_all_threads_have_equal_barrier_counts(self, execution):
        prog = program_from_execution(execution)
        barrier_seqs = [
            [op.barrier_id for op in t.ops if isinstance(op, Barrier)]
            for t in prog.threads
        ]
        assert all(seq == barrier_seqs[0] for seq in barrier_seqs)
        assert len(barrier_seqs[0]) == len(execution.phases)

    def test_single_thread_has_no_barriers(self, single_thread_execution):
        prog = program_from_execution(single_thread_execution)
        assert not any(isinstance(op, Barrier) for op in prog.threads[0].ops)

    def test_phases_balanced_per_thread(self, execution):
        prog = program_from_execution(execution)
        for t in prog.threads:
            depth = 0
            for op in t.ops:
                if isinstance(op, PhaseBegin):
                    depth += 1
                elif isinstance(op, PhaseEnd):
                    depth -= 1
                assert depth >= 0
            assert depth == 0

    def test_instruction_totals_preserved(self, execution):
        prog = program_from_execution(execution)
        expected = sum(sum(w.per_thread_instructions) for w in execution.phases)
        emitted = sum(
            op.instructions
            for t in prog.threads
            for op in t.ops
            if isinstance(op, Compute)
        )
        assert emitted == expected


class TestAddressDiscipline:
    def test_private_loads_stay_in_own_region(self, execution):
        amap = AddressMap()
        prog = TraceGenerator(amap).program(execution)
        # thread 1's parallel-phase loads never touch thread 0's data region
        t1_loads = [
            op.addr for op in prog.threads[1].ops if isinstance(op, Load)
        ]
        t0_data = range(amap.data_region(0), amap.data_region(1))
        assert not any(a in t0_data for a in t1_loads if a >= amap.data_base and a < amap.partials_base)

    def test_master_reads_remote_partials_in_reduction(self, execution):
        amap = AddressMap()
        prog = TraceGenerator(amap).program(execution)
        t0_ops = list(prog.threads[0].ops)
        # collect loads inside reduction phases
        in_red, remote = False, []
        for op in t0_ops:
            if isinstance(op, PhaseBegin) and op.phase == "reduction":
                in_red = True
            elif isinstance(op, PhaseEnd) and op.phase == "reduction":
                in_red = False
            elif in_red and isinstance(op, Load):
                remote.append(op.addr)
        other_partials = [
            a for a in remote
            if a >= amap.partials_region(1)
        ]
        assert other_partials, "master must read other threads' partials"

    def test_workers_store_into_own_partials(self, execution):
        amap = AddressMap()
        prog = TraceGenerator(amap).program(execution)
        for tid in (1, 2, 3):
            stores = [
                op.addr for op in prog.threads[tid].ops if isinstance(op, Store)
            ]
            assert stores
            lo = amap.partials_region(tid)
            hi = lo + amap.partials_stride
            assert all(lo <= a < hi for a in stores)


class TestMemScale:
    def test_mem_scale_reduces_ops_but_not_compute(self, execution):
        full = program_from_execution(execution, mem_scale=1)
        scaled = program_from_execution(execution, mem_scale=8)

        def count(prog, kind):
            return sum(
                1 for t in prog.threads for op in t.ops if isinstance(op, kind)
            )

        def instr(prog):
            return sum(
                op.instructions
                for t in prog.threads for op in t.ops if isinstance(op, Compute)
            )

        assert count(scaled, Load) < count(full, Load)
        assert instr(scaled) == instr(full)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            TraceGenerator(chunks=0)
        with pytest.raises(ValueError):
            TraceGenerator(mem_scale=0)


class TestRunnability:
    def test_program_runs_on_machine(self, execution):
        from repro.simx import Machine, MachineConfig

        prog = program_from_execution(execution, mem_scale=4)
        res = Machine(MachineConfig.baseline(n_cores=4)).run(prog)
        assert res.total_cycles > 0
        assert res.phase_cycles("parallel") > res.phase_cycles("reduction")
