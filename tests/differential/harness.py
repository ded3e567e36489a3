"""Shared helpers for the engine-equivalence tests.

Machine shapes, a program builder, the two-engine runner and the
all-fields comparison used by ``tests/differential``, ``tests/simx``,
``tests/sched`` and ``scripts/run_bench.py``.  The reference engine is
selected with ``batch_path=False``; the default config runs the lockstep
batch engine wherever its gates allow.
"""

from dataclasses import replace

from repro.simx import Machine, MachineConfig, ThreadTrace, TraceProgram
from repro.simx.config import CacheConfig

LINE = 64


def tiny_config(**overrides) -> MachineConfig:
    defaults = dict(
        n_cores=4,
        l1d=CacheConfig(size=8 * LINE, ways=2),  # 4 sets x 2 ways: evicts early
        l1i=CacheConfig(size=8 * LINE, ways=2),
        l2=CacheConfig(size=64 * LINE, ways=4, hit_latency=12),
    )
    defaults.update(overrides)
    return MachineConfig(**defaults)


CONFIGS = {
    "baseline-tiny": tiny_config(),
    "msi": tiny_config(coherence_protocol="msi"),
    "mesh": tiny_config(interconnect="mesh"),
    "asymmetric": tiny_config(core_perf_factors=(2.0, 1.0, 1.0, 1.0)),
    "bigger-l1": tiny_config(l1d=CacheConfig(size=64 * LINE, ways=4)),
}

#: the rotating machine shapes the seeded corpora cycle through
CONFIG_RING = tuple(CONFIGS.items())


def program_of(threads) -> TraceProgram:
    return TraceProgram(
        "diff", [ThreadTrace(i, list(ops)) for i, ops in enumerate(threads)]
    )


def run_two(cfg: MachineConfig, program: TraceProgram):
    """One program through the reference and the batch engine."""
    ref = Machine(replace(cfg, batch_path=False)).run(program)
    bat = Machine(replace(cfg, batch_path=True)).run(program)
    return ref, bat


def assert_identical(got, ref):
    assert got.n_ops == ref.n_ops
    assert got.total_cycles == ref.total_cycles
    assert got.thread_cycles == ref.thread_cycles
    assert got.instructions == ref.instructions
    assert got.coherence == ref.coherence
    gs, rs = got.phase_stats, ref.phase_stats
    assert {p: dict(t) for p, t in gs.busy.items() if any(t.values())} == \
           {p: dict(t) for p, t in rs.busy.items() if any(t.values())}
    assert {p: dict(t) for p, t in gs.wait.items() if any(t.values())} == \
           {p: dict(t) for p, t in rs.wait.items() if any(t.values())}
    assert gs.spans == rs.spans
    assert list(gs.spans) == list(rs.spans)  # key order too
    assert got.coherence_by_phase == ref.coherence_by_phase
    assert list(got.coherence_by_phase) == list(ref.coherence_by_phase)
