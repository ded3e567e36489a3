#!/usr/bin/env python
"""Extending the library: characterise your *own* workload.

The three bundled workloads are MineBench's clustering benchmarks, but the
pipeline is generic: anything that subclasses ``ClusteringWorkloadBase``
and records per-phase work can be simulated, extracted and fed to the
model.  Here we build a word-count-style histogram workload — another
classic partial-write-reduction pattern [Jin & Agrawal] — and push it
through the whole pipeline.

A workload supplies two steps: ``_canonical_run`` computes the numerics
(once per workload identity in a process: the base class memoises it),
and ``_account`` turns that run into one thread count's per-phase work.

Run:  python examples/custom_workload.py
"""

from dataclasses import dataclass

import numpy as np

from repro.core import merging
from repro.simx import Machine, MachineConfig
from repro.workloads.base import (
    PHASE_INIT,
    PHASE_PARALLEL,
    PHASE_REDUCTION,
    PHASE_SERIAL,
    CanonicalRun,
    ClusteringWorkloadBase,
    PhaseWork,
    WorkloadExecution,
    master_only,
)
from repro.workloads.instrument import breakdown_from_simulation, extract_parameters
from repro.workloads.tracegen import program_from_execution


@dataclass
class HistogramWorkload(ClusteringWorkloadBase):
    """Parallel histogram: classic privatised partial-write reduction.

    Each thread histograms its slice of the input into a private
    ``n_bins`` array; the merging phase accumulates one partial histogram
    per thread (Algorithm 1 structure); a serial phase normalises.
    """

    n_items: int = 200_000
    n_bins: int = 4096
    seed: int = 0

    name = "histogram"

    def _work_items(self) -> "tuple[int, str]":
        return self.n_items, "items"

    def _canonical_run(self) -> CanonicalRun:
        rng = np.random.default_rng(self.seed)
        data = rng.integers(0, self.n_bins, size=self.n_items)
        return CanonicalRun(1, {"histogram": np.bincount(data, minlength=self.n_bins)})

    def _account(self, run: CanonicalRun, ex: WorkloadExecution) -> None:
        n_threads = ex.n_threads
        master = lambda v: master_only(v, n_threads)  # noqa: E731

        ex.add(PhaseWork(
            phase=PHASE_INIT,
            per_thread_instructions=master(self.n_bins),
            per_thread_reads=master(0),
            per_thread_writes=master(self.n_bins),
        ))

        counts = self.per_thread_counts(self.n_items, n_threads)
        ex.add(PhaseWork(
            phase=PHASE_PARALLEL,
            per_thread_instructions=tuple(int(c) * 6 for c in counts),
            per_thread_reads=tuple(int(c) for c in counts),
            per_thread_writes=tuple(int(c) for c in counts),
        ))

        # Algorithm 1: the master accumulates each thread's partial
        ex.add(PhaseWork(
            phase=PHASE_REDUCTION,
            per_thread_instructions=master(self.n_bins * n_threads * 2),
            per_thread_reads=master(self.n_bins * n_threads),
            per_thread_writes=master(self.n_bins),
            shared_reads=master(self.n_bins * (n_threads - 1)),
        ))

        ex.add(PhaseWork(
            phase=PHASE_SERIAL,
            per_thread_instructions=master(self.n_bins * 2),
            per_thread_reads=master(self.n_bins),
            per_thread_writes=master(self.n_bins),
        ))


def main() -> None:
    workload = HistogramWorkload(n_items=60_000, n_bins=2048)
    machine = Machine(MachineConfig.baseline(n_cores=16))

    print("simulating the histogram workload across core counts...")
    breakdowns = {}
    for p in (1, 2, 4, 8, 16):
        program = program_from_execution(workload.execute(p), mem_scale=4)
        result = machine.run(program)
        breakdowns[p] = breakdown_from_simulation(result)
        print(f"  {p:2d} threads: reduction {breakdowns[p].reduction:>10,.0f} cycles")

    extracted = extract_parameters(breakdowns, "histogram")
    print(f"\nextracted: f={1 - extracted.serial_pct / 100:.5f}, "
          f"fcon={extracted.fcon_share:.0%}, fored={extracted.fored_rel:.0%} "
          f"(alpha={extracted.growth_alpha:.2f})")

    # a histogram has a *large* reduction relative to its cheap per-item
    # work, so the growing merge bites early:
    params = extracted.to_measured_params().to_design_params()
    best = merging.best_symmetric(params, n=256)
    print(f"\noptimal 256-BCE chip for this workload: "
          f"{best.cores:.0f} cores of {best.r:.0f} BCEs -> {best.speedup:.1f}x")
    print("(compare kmeans, whose heavier per-point work tolerates many "
          "more cores)")

    check = int(workload.execute(4).outputs["histogram"].sum())
    assert check == 60_000, "histogram must count every item exactly once"
    print("\nnumeric check passed: histogram counts every item once.")


if __name__ == "__main__":
    main()
