"""Property tests: the simulator is deterministic and scheduling-stable."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simx import (
    Barrier,
    Compute,
    Load,
    Machine,
    MachineConfig,
    Store,
    ThreadTrace,
    TraceProgram,
)
from repro.simx.config import CacheConfig


def tiny_machine(n_cores=4) -> Machine:
    return Machine(MachineConfig(
        n_cores=n_cores,
        l1d=CacheConfig(size=16 * 64, ways=4),
        l1i=CacheConfig(size=16 * 64, ways=4),
        l2=CacheConfig(size=256 * 64, ways=8, hit_latency=12),
    ))


@st.composite
def random_programs(draw):
    n_threads = draw(st.integers(min_value=1, max_value=4))
    n_barriers = draw(st.integers(min_value=0, max_value=3))
    threads = []
    for tid in range(n_threads):
        ops = []
        for b in range(n_barriers + 1):
            for _ in range(draw(st.integers(min_value=0, max_value=8))):
                kind = draw(st.sampled_from(["c", "l", "s"]))
                if kind == "c":
                    ops.append(Compute(draw(st.integers(min_value=1, max_value=500))))
                elif kind == "l":
                    ops.append(Load(draw(st.integers(min_value=0, max_value=63)) * 64))
                else:
                    ops.append(Store(draw(st.integers(min_value=0, max_value=63)) * 64))
            if b < n_barriers:
                ops.append(Barrier(b))
        threads.append(ops)
    return threads


class TestDeterminism:
    @settings(max_examples=30, deadline=None)
    @given(threads=random_programs())
    def test_identical_runs_identical_cycles(self, threads):
        def run():
            prog = TraceProgram(
                "p", [ThreadTrace(i, list(ops)) for i, ops in enumerate(threads)]
            )
            return tiny_machine().run(prog)

        a, b = run(), run()
        assert a.total_cycles == b.total_cycles
        assert a.thread_cycles == b.thread_cycles
        assert a.coherence.l1_misses == b.coherence.l1_misses
        assert a.coherence.cache_to_cache == b.coherence.cache_to_cache

    @settings(max_examples=30, deadline=None)
    @given(threads=random_programs())
    def test_total_cycles_at_least_per_thread_busy(self, threads):
        prog = TraceProgram(
            "p", [ThreadTrace(i, list(ops)) for i, ops in enumerate(threads)]
        )
        res = tiny_machine().run(prog)
        assert res.total_cycles == max(res.thread_cycles, default=0)

    @settings(max_examples=20, deadline=None)
    @given(
        work=st.lists(st.integers(min_value=100, max_value=2000), min_size=2, max_size=4),
    )
    def test_barrier_release_simultaneous(self, work):
        threads = [
            [Compute(w), Barrier(0), Compute(100)] for w in work
        ]
        prog = TraceProgram(
            "p", [ThreadTrace(i, ops) for i, ops in enumerate(threads)]
        )
        res = tiny_machine().run(prog)
        # all threads end at the same time: equal post-barrier work
        assert len(set(res.thread_cycles)) == 1


# ── engine knob parity ────────────────────────────────────────────────────
#
# The `batch_path` knob (`repro simulate --reference-engine` turns it off) may
# change throughput only, never results: every machine configuration must
# produce bitwise-equal output with the knob on and off.  Configurations
# the batch engine cannot run (banked DRAM, contended bus) take
# the gated fallback, which must be exactly the reference engine.  Deeper
# differential proofs live in tests/simx (hypothesis programs) and
# tests/differential (seeded corpus); this is the regression tripwire that
# keeps the knob from ever forking behaviour silently.

PARITY_CONFIGS = {
    "baseline": MachineConfig.baseline(n_cores=4),
    "tiny-caches": MachineConfig(
        n_cores=4,
        l1d=CacheConfig(size=8 * 64, ways=2),
        l1i=CacheConfig(size=8 * 64, ways=2),
        l2=CacheConfig(size=64 * 64, ways=4, hit_latency=12),
    ),
    "msi": MachineConfig(n_cores=4, coherence_protocol="msi"),
    "mesh": MachineConfig(n_cores=4, interconnect="mesh"),
    "banked-dram": MachineConfig(n_cores=4, dram="banked"),
    "contended-bus": MachineConfig(n_cores=4, bus_occupancy=2),
    "asymmetric": MachineConfig(n_cores=4, core_perf_factors=(2.0, 1.0, 1.0, 1.0)),
}


def _parity_program() -> TraceProgram:
    """A fixed mixed trace: private streams, shared lines, barriers."""
    threads = []
    for tid in range(4):
        base = (0x1000 + tid * 0x100) * 64
        ops = []
        for rnd in range(3):
            for i in range(12):
                ops.append(Compute(17 + 13 * i))
                ops.append(Load(base + ((rnd * 12 + i) % 24) * 64))
                if i % 3 == 0:
                    ops.append(Store(base + (i % 8) * 64))
                if i % 5 == 0:
                    ops.append(Load((i % 6) * 64))       # shared reads
                if i % 7 == 0:
                    ops.append(Store(((i + tid) % 6) * 64))  # shared writes
            ops.append(Barrier(rnd))
        threads.append(ThreadTrace(tid, ops))
    return TraceProgram("parity", threads)


class TestFastPathKnobParity:
    @pytest.mark.parametrize("name", sorted(PARITY_CONFIGS))
    def test_knob_never_changes_results(self, name):
        config = PARITY_CONFIGS[name]
        prog = _parity_program()
        on = Machine(replace(config, batch_path=True)).run(prog)
        off = Machine(replace(config, batch_path=False)).run(prog)
        assert on.total_cycles == off.total_cycles
        assert on.thread_cycles == off.thread_cycles
        assert on.instructions == off.instructions
        assert on.coherence == off.coherence
        assert on.phase_stats.spans == off.phase_stats.spans
        assert {p: dict(t) for p, t in on.phase_stats.busy.items()} == \
               {p: dict(t) for p, t in off.phase_stats.busy.items()}
        assert {p: dict(t) for p, t in on.phase_stats.wait.items()} == \
               {p: dict(t) for p, t in off.phase_stats.wait.items()}
        assert on.coherence_by_phase == off.coherence_by_phase

    @pytest.mark.parametrize("name", sorted(PARITY_CONFIGS))
    def test_knob_on_is_deterministic(self, name):
        config = replace(PARITY_CONFIGS[name], batch_path=True)
        prog = _parity_program()
        a = Machine(config).run(prog)
        b = Machine(config).run(prog)
        assert a.total_cycles == b.total_cycles
        assert a.thread_cycles == b.thread_cycles
        assert a.coherence == b.coherence
