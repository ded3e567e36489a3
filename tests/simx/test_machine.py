"""Unit and integration tests for the discrete-event machine."""

import pytest

from repro.simx.config import CacheConfig, MachineConfig
from repro.simx.machine import DeadlockError, Machine, TraceError
from repro.simx.trace import (
    Barrier,
    Compute,
    Load,
    Lock,
    PhaseBegin,
    PhaseEnd,
    Store,
    ThreadTrace,
    TraceProgram,
    Unlock,
)


def machine(n_cores: int = 4) -> Machine:
    return Machine(
        MachineConfig(
            n_cores=n_cores,
            l1d=CacheConfig(size=16 * 64, ways=4),
            l1i=CacheConfig(size=16 * 64, ways=4),
            l2=CacheConfig(size=256 * 64, ways=8, hit_latency=12),
        )
    )


def program(name: str, *op_lists) -> TraceProgram:
    return TraceProgram(
        name=name,
        threads=[ThreadTrace(i, list(ops)) for i, ops in enumerate(op_lists)],
    )


class TestSingleThread:
    def test_compute_timing_uses_effective_ipc(self):
        m = machine(1)
        res = m.run(program("p", [Compute(1000)]))
        assert res.total_cycles == 500  # IPC 2.0

    def test_memory_ops_accumulate_latency(self):
        m = machine(1)
        res = m.run(program("p", [Load(0), Load(0)]))
        # cold miss + L1 hit
        cfg = m.config
        assert res.total_cycles >= cfg.memory_latency + 2 * cfg.l1d.hit_latency

    def test_empty_trace(self):
        res = machine(1).run(program("p", []))
        assert res.total_cycles == 0

    def test_instruction_counting(self):
        res = machine(1).run(program("p", [Compute(100), Load(0), Store(64)]))
        assert res.instructions == (102,)


class TestPhases:
    def test_busy_cycles_attributed_to_phase(self):
        res = machine(1).run(
            program("p", [
                PhaseBegin("init"), Compute(200), PhaseEnd("init"),
                PhaseBegin("work"), Compute(800), PhaseEnd("work"),
            ])
        )
        assert res.phase_cycles("init") == 100
        assert res.phase_cycles("work") == 400

    def test_nested_phases_attribute_to_innermost(self):
        res = machine(1).run(
            program("p", [
                PhaseBegin("outer"), Compute(100),
                PhaseBegin("inner"), Compute(100), PhaseEnd("inner"),
                Compute(100), PhaseEnd("outer"),
            ])
        )
        assert res.phase_cycles("inner") == 50
        assert res.phase_cycles("outer") == 100

    def test_unbalanced_phase_end_raises(self):
        with pytest.raises(TraceError):
            machine(1).run(program("p", [PhaseEnd("x")]))

    def test_unclosed_phase_raises(self):
        with pytest.raises(TraceError):
            machine(1).run(program("p", [PhaseBegin("x")]))

    def test_phase_wall_span(self):
        res = machine(1).run(
            program("p", [Compute(200), PhaseBegin("w"), Compute(200), PhaseEnd("w")])
        )
        assert res.phase_wall_cycles("w") == 100


class TestBarriers:
    def test_all_threads_meet(self):
        res = machine(2).run(
            program("p",
                [Compute(1000), Barrier(0), Compute(10)],
                [Compute(10), Barrier(0), Compute(10)],
            )
        )
        # thread 1 waits for thread 0: both resume at 500 + release latency
        t0, t1 = res.thread_cycles
        assert t0 == t1

    def test_wait_time_recorded(self):
        res = machine(2).run(
            program("p",
                [PhaseBegin("w"), Compute(1000), Barrier(0), PhaseEnd("w")],
                [PhaseBegin("w"), Compute(10), Barrier(0), PhaseEnd("w")],
            )
        )
        assert res.phase_stats.wait_cycles("w", 1) >= 495 - 10

    def test_missing_thread_deadlocks(self):
        with pytest.raises(DeadlockError):
            machine(2).run(
                program("p", [Barrier(0)], [Compute(10)])
            )

    def test_sequential_barriers(self):
        res = machine(2).run(
            program("p",
                [Barrier(0), Compute(100), Barrier(1)],
                [Barrier(0), Compute(100), Barrier(1)],
            )
        )
        assert res.total_cycles > 0

    def test_duplicate_arrival_raises(self):
        with pytest.raises((TraceError, DeadlockError)):
            machine(2).run(
                program("p", [Barrier(0), Barrier(0)], [Compute(1)])
            )


class TestLocks:
    def test_lock_serialises_critical_sections(self):
        res = machine(2).run(
            program("p",
                [Lock(0), Compute(1000), Unlock(0)],
                [Lock(0), Compute(1000), Unlock(0)],
            )
        )
        acquire = 20
        # the two 500-cycle sections cannot overlap
        assert res.total_cycles >= 1000 + 2 * acquire

    def test_fifo_handover_wait_recorded(self):
        res = machine(2).run(
            program("p",
                [PhaseBegin("cs"), Lock(0), Compute(1000), Unlock(0), PhaseEnd("cs")],
                [PhaseBegin("cs"), Lock(0), Compute(1000), Unlock(0), PhaseEnd("cs")],
            )
        )
        total_wait = res.phase_stats.wait_cycles("cs")
        assert total_wait > 0

    def test_unlock_without_hold_raises(self):
        with pytest.raises(TraceError):
            machine(1).run(program("p", [Unlock(0)]))

    def test_finishing_with_lock_raises(self):
        with pytest.raises(TraceError):
            machine(1).run(program("p", [Lock(0)]))

    def test_never_released_lock_deadlocks(self):
        with pytest.raises((DeadlockError, TraceError)):
            machine(2).run(
                program("p", [Lock(0), Compute(10)], [Lock(0), Compute(10)])
            )


class TestResourceLimits:
    def test_more_threads_than_cores_rejected(self):
        with pytest.raises(ValueError):
            machine(1).run(program("p", [Compute(1)], [Compute(1)]))


class TestParallelSpeedup:
    def test_data_parallel_work_scales(self):
        """The headline integration check: embarrassingly parallel compute
        across p cores runs ~p times faster."""
        work = 160_000

        def worker(tid: int, p: int):
            return [Compute(work // p), Barrier(0)]

        times = {}
        for p in (1, 2, 4):
            m = machine(4)
            prog = TraceProgram(
                "scale", [ThreadTrace(i, worker(i, p)) for i in range(p)]
            )
            times[p] = m.run(prog).total_cycles
        assert times[1] / times[2] == pytest.approx(2.0, rel=0.01)
        assert times[1] / times[4] == pytest.approx(4.0, rel=0.02)

    def test_sharing_heavy_trace_slower_than_private(self):
        """Threads hammering the same lines pay coherence costs."""
        shared_ops = [[Store(0) for _ in range(50)] for _ in range(2)]
        private_ops = [[Store(64 * 1000 * (tid + 1)) for _ in range(50)] for tid in range(2)]
        shared = machine(2).run(program("shared", *shared_ops)).total_cycles
        private = machine(2).run(program("private", *private_ops)).total_cycles
        assert shared > private
