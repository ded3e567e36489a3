"""Scheduler semantics: oversubscription, quanta, migration, ACMP policies.

These tests run hand-built programs where the expected dispatch behaviour
is small enough to reason about exactly: who preempts whom, what a
migration costs, and which core the merge thread lands on.
"""

from dataclasses import replace

import pytest

from repro.simx import (
    Barrier,
    Compute,
    Machine,
    MachineConfig,
    PhaseBegin,
    PhaseEnd,
    ThreadTrace,
    TraceProgram,
    build_scheduler,
    supports_batch_path,
)
from repro.simx.sched import (
    SERIAL_PHASES,
    AcmpScheduler,
    PinnedScheduler,
    RoundRobinScheduler,
)

LINE = 64


def chopped_compute(tid, total, chunk=50):
    """Compute work split into many ops — each boundary can preempt."""
    return ThreadTrace(tid, [Compute(chunk)] * (total // chunk))


def rr_config(cores, **overrides):
    return replace(
        MachineConfig.baseline(n_cores=cores), scheduler="round-robin",
        **overrides,
    )


class TestOversubscription:
    def test_more_threads_than_cores_completes(self):
        prog = TraceProgram("wide", [chopped_compute(t, 2000) for t in range(8)])
        res = Machine(rr_config(2, quantum=200)).run(prog)
        # 8 threads x 2000 instructions at IPC 2 on 2 cores: 4000 cycles
        assert res.total_cycles >= 4000
        assert res.sched.dispatches >= 8
        assert len(res.thread_cycles) == 8

    def test_pinned_still_rejects_oversubscription(self):
        prog = TraceProgram("wide", [chopped_compute(t, 100) for t in range(3)])
        with pytest.raises(ValueError, match="scheduler='round-robin'"):
            Machine(MachineConfig.baseline(n_cores=2)).run(prog)

    def test_instructions_are_tracked_per_thread(self):
        # two threads multiplexed on one core: per-core counters would
        # conflate them, per-thread accounting must not
        prog = TraceProgram("two", [
            ThreadTrace(0, [Compute(100)] * 4),
            ThreadTrace(1, [Compute(100)] * 2),
        ])
        res = Machine(rr_config(1, quantum=100)).run(prog)
        assert res.instructions == (400, 200)


class TestQuantum:
    def test_quantum_expiry_preempts(self):
        prog = TraceProgram("pair", [
            chopped_compute(0, 4000), chopped_compute(1, 4000),
        ])
        res = Machine(rr_config(1, quantum=200)).run(prog)
        assert res.sched.preemptions > 0

    def test_no_quantum_runs_to_block(self):
        prog = TraceProgram("pair", [
            chopped_compute(0, 4000), chopped_compute(1, 4000),
        ])
        res = Machine(rr_config(1)).run(prog)
        assert res.sched.preemptions == 0
        # strictly serialized: thread 1 starts after thread 0 finishes
        # (4000 instructions each at IPC 2 -> 2000 + 2000 cycles)
        assert res.total_cycles == 4000

    def test_expiry_without_waiters_grants_a_fresh_slice(self):
        # a lone thread on a core never has anyone to yield to
        prog = TraceProgram("solo", [chopped_compute(0, 4000)])
        res = Machine(rr_config(1, quantum=100)).run(prog)
        assert res.sched.preemptions == 0
        assert res.total_cycles == 2000

    def test_smaller_quantum_preempts_more(self):
        prog_f = lambda: TraceProgram("pair", [
            chopped_compute(0, 4000), chopped_compute(1, 4000),
        ])
        fine = Machine(rr_config(1, quantum=100)).run(prog_f())
        coarse = Machine(rr_config(1, quantum=1000)).run(prog_f())
        assert fine.sched.preemptions > coarse.sched.preemptions


class TestMigration:
    def test_migration_cost_is_charged(self):
        # 3 threads on 2 cores, no affinity possible for the odd one out:
        # the same program must take longer when moving costs cycles
        prog_f = lambda: TraceProgram("tri", [
            chopped_compute(t, 2000) for t in range(3)
        ])
        free = Machine(rr_config(2, quantum=200)).run(prog_f())
        taxed = Machine(
            rr_config(2, quantum=200, migration_cost=100)
        ).run(prog_f())
        assert free.sched.migrations > 0
        assert taxed.total_cycles > free.total_cycles

    def test_affinity_avoids_migrations_when_cores_suffice(self):
        prog = TraceProgram("fit", [
            ThreadTrace(0, [Compute(100), Barrier(0), Compute(100)]),
            ThreadTrace(1, [Compute(300), Barrier(0), Compute(100)]),
        ])
        res = Machine(rr_config(2, quantum=150)).run(prog)
        assert res.sched.migrations == 0


def acmp_config(policy, **overrides):
    return replace(
        MachineConfig.asymmetric(rl=4, n_small=3), scheduler="acmp",
        acmp_policy=policy, **overrides,
    )


def merge_program(n_threads=4):
    """Workers compute while the last thread (already in its reduction
    phase at the barrier) merges — the placement decision under test."""
    master = n_threads - 1
    threads = []
    for tid in range(n_threads):
        ops = [PhaseBegin("parallel"), Compute(800), PhaseEnd("parallel")]
        if tid == master:
            ops += [PhaseBegin("reduction"), Barrier(0), Compute(1600),
                    PhaseEnd("reduction")]
        else:
            ops += [Barrier(0), PhaseBegin("parallel"), Compute(1600),
                    PhaseEnd("parallel")]
        ops.append(Barrier(1))
        threads.append(ThreadTrace(tid, ops))
    return TraceProgram("merge", threads)


class TestAcmpPolicies:
    def test_serial_phases_cover_the_merge_vocabulary(self):
        assert {"reduction", "serial", "merge", "init"} <= set(SERIAL_PHASES)

    def test_reduction_owns_big_speeds_up_the_merge(self):
        fc = Machine(acmp_config("first-come")).run(merge_program())
        owned = Machine(acmp_config("reduction-owns-big")).run(merge_program())
        # big core runs the 1600-cycle merge at perf 2.0: 800 busy cycles
        assert owned.phase_cycles("reduction") < fc.phase_cycles("reduction")

    def test_migrate_on_phase_migrates(self):
        fc = Machine(acmp_config("first-come")).run(merge_program())
        mig = Machine(acmp_config("migrate-on-phase")).run(merge_program())
        assert mig.sched.migrations > fc.sched.migrations

    def test_policies_report_their_scheduler(self):
        res = Machine(acmp_config("first-come")).run(merge_program())
        assert res.sched.scheduler == "acmp"
        assert "acmp" in res.summary()


class TestComputeFollowsTheCore:
    """A compute burst is priced by the core the thread runs on at that
    op, not by its thread id or its first core."""

    def test_migrating_thread_pays_each_cores_factor(self):
        # core 0 is the 4-BCE big core (perf 2), core 1 a 1-BCE small core
        # (perf 1); at IPC 2 a 100-instruction burst costs 25 and 50 cycles
        cfg = replace(MachineConfig.asymmetric(rl=4, n_small=1),
                      scheduler="acmp", acmp_policy="migrate-on-phase",
                      migration_cost=7)
        prog = TraceProgram("chase", [ThreadTrace(0, [
            Compute(100), PhaseBegin("merge"), Compute(100),
            PhaseEnd("merge"), Compute(100),
        ])])
        res = Machine(cfg).run(prog)
        # small core 0-50; entering the merge moves it to the big core
        # (start 50 + 7), 57-82; leaving it moves it back, 89-139
        assert res.total_cycles == 139
        assert res.phase_cycles("merge") == 25
        assert res.phase_cycles("(unattributed)") == 100
        assert res.phase_stats.wait_cycles("merge") == 7
        assert res.phase_stats.wait_cycles("(unattributed)") == 7
        assert res.phase_wall_cycles("merge") == 32
        assert res.instructions == (300,)
        assert (res.sched.dispatches, res.sched.migrations,
                res.sched.preemptions, res.sched.involuntary_wait_cycles) == (3, 2, 0, 14)


class TestFallbackSeam:
    """Non-pinned dispatch must force the reference engine: the lockstep
    batch engine assumes one thread per core.  Which engine a pinned
    config takes is pinned by ``tests/simx/test_engine_selection.py``."""

    def test_supports_scheduling_gate(self):
        # the one engine-selection gate: only pinned dispatch may leave
        # the reference engine, whatever the policy
        assert supports_batch_path(MachineConfig.baseline(n_cores=2))
        assert not supports_batch_path(rr_config(2))
        assert not supports_batch_path(acmp_config("first-come"))

    def test_fast_and_batch_paths_refuse_scheduled_configs(self):
        cfg = rr_config(2, batch_path=True)
        assert not supports_batch_path(cfg)
        assert supports_batch_path(MachineConfig.baseline(n_cores=2))

    def test_scheduled_run_lands_on_the_reference_engine(self):
        prog = TraceProgram("p", [chopped_compute(t, 500) for t in range(4)])
        res = Machine(rr_config(2, batch_path=True, quantum=100)).run(prog)
        assert res.engine == "reference"


class TestFactory:
    def test_build_scheduler_selects_by_config(self):
        assert isinstance(
            build_scheduler(MachineConfig.baseline(n_cores=2)),
            PinnedScheduler,
        )
        rr = build_scheduler(rr_config(2))
        assert isinstance(rr, RoundRobinScheduler)
        assert not isinstance(rr, AcmpScheduler)
        assert isinstance(
            build_scheduler(acmp_config("first-come")), AcmpScheduler
        )

    def test_stats_name_follows_the_policy(self):
        assert build_scheduler(rr_config(2)).stats.scheduler == "round-robin"


class TestResultSurface:
    def test_summary_renders_scheduler_table_when_scheduled(self):
        prog = TraceProgram("p", [chopped_compute(t, 500) for t in range(4)])
        out = Machine(rr_config(2, quantum=100)).run(prog).summary()
        assert "round-robin" in out and "preemptions" in out

    def test_pinned_summary_omits_the_scheduler_table(self):
        prog = TraceProgram("p", [ThreadTrace(0, [Compute(100)])])
        out = Machine(MachineConfig.baseline(n_cores=1)).run(prog).summary()
        assert "preemptions" not in out
