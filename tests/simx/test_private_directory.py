"""The batch engine keeps no directory entry for a thread-private line.

A private line's sharers and owner follow from its thread's own L1, and
its L2 residency from whether it was filled before, so the eager loop
builds no :class:`~repro.simx.coherence.DirectoryEntry` for it.  These
tests count the entries a batch run constructs: a private-only program
constructs none, and on a workload program every entry belongs to a
line the full protocol path touched — a shared line, a bailed access,
or a victim that path evicted.
"""

from dataclasses import replace

import pytest

from repro.simx import Barrier, Compute, Load, Machine, MachineConfig, Store
from repro.simx.batch import compile_batch
from repro.simx.coherence import CoherenceController, DirectoryEntry
from repro.workloads.datasets import make_blobs
from repro.workloads.kmeans import KMeansWorkload
from repro.workloads.tracegen import program_from_execution
from tests.differential.harness import LINE, assert_identical, program_of, tiny_config


@pytest.fixture
def census(monkeypatch):
    """Record, for every batch run: the entries constructed, the
    directories left behind, and the lines of every full-path access and
    full-path victim."""
    seen = {"built": 0, "controllers": [], "accessed": set(), "victims": set()}
    init = DirectoryEntry.__init__

    def counting_init(self, *args, **kwargs):
        seen["built"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(DirectoryEntry, "__init__", counting_init)
    ctrl_init = CoherenceController.__init__

    def tracking_init(self, *args, **kwargs):
        ctrl_init(self, *args, **kwargs)
        seen["controllers"].append(self)

    monkeypatch.setattr(CoherenceController, "__init__", tracking_init)
    for name in ("read", "write"):
        real = getattr(CoherenceController, name)

        def access(self, core, addr, now=0, real=real):
            seen["accessed"].add(addr // self._line_size)
            return real(self, core, addr, now)

        monkeypatch.setattr(CoherenceController, name, access)
    evict = CoherenceController._handle_l1_eviction

    def victim(self, core, line):
        seen["victims"].add(line.line_addr)
        return evict(self, core, line)

    monkeypatch.setattr(CoherenceController, "_handle_l1_eviction", victim)
    return seen


def run_batch_engine(cfg, program):
    result = Machine(cfg).run(program)
    assert result.engine == "batch"
    return result


@pytest.mark.parametrize("cfg", [
    tiny_config(),
    tiny_config(coherence_protocol="msi"),
    MachineConfig(n_cores=1),
], ids=["tiny-mesi", "tiny-msi", "table1"])
def test_a_private_only_thread_constructs_no_entry(census, cfg):
    # twice the L1's lines, three sweeps: stores, refills from the L2
    # and dirty evictions in every set
    n_lines = 2 * cfg.l1d.size // cfg.line_size
    ops = []
    for rep in range(3):
        for i in range(n_lines):
            ops += [Compute(3), Load((0x1000 + i) * LINE)]
            if (i + rep) % 3 == 0:
                ops.append(Store((0x1000 + i) * LINE))
    program = program_of([ops])
    result = run_batch_engine(cfg, program)
    assert result.coherence.memory_fetches == n_lines
    assert result.coherence.l2_hits == 2 * n_lines
    assert result.coherence.writebacks > 0
    assert census["built"] == 0
    assert not census["controllers"][0].directory
    assert_identical(result, Machine(replace(cfg, batch_path=False)).run(program))


def test_private_threads_between_barriers_construct_no_entry(census):
    threads = [
        [Load((0x1000 + 0x100 * t + i) * LINE) for i in range(40)]
        + [Barrier(0)]
        + [Store((0x1000 + 0x100 * t + i) * LINE) for i in range(40)]
        for t in range(4)
    ]
    run_batch_engine(tiny_config(), program_of(threads))
    assert census["built"] == 0


@pytest.fixture(scope="module")
def kmeans_program():
    # big enough that the merge reads lines of other threads
    kmeans = KMeansWorkload(make_blobs(2000, 4, 3, seed=1), max_iterations=3)
    return program_from_execution(kmeans.execute(4), mem_scale=4)


@pytest.mark.parametrize("cfg", [
    tiny_config(),
    tiny_config(coherence_protocol="msi"),
    tiny_config(interconnect="mesh"),
    MachineConfig(n_cores=4),
], ids=["tiny-mesi", "tiny-msi", "tiny-mesh", "table1"])
def test_workload_entries_belong_to_full_path_lines(census, cfg, kmeans_program):
    result = run_batch_engine(cfg, kmeans_program)
    (ctrl,) = census["controllers"]
    directory = set(ctrl.directory)
    # every constructed entry is still in the directory: none was orphaned
    assert census["built"] == len(directory)
    shared = compile_batch(kmeans_program, cfg.line_size).shared_lines
    assert shared
    bailed = census["accessed"] - shared
    assert len(bailed) <= result.n_burst_fallbacks
    if cfg.l1d.size < MachineConfig().l1d.size:
        assert bailed and census["victims"] - shared  # the seams were crossed
    assert directory <= shared | bailed | census["victims"]
    # the private work the eager loop did cost no entries
    assert result.coherence.memory_fetches > len(directory - shared)
