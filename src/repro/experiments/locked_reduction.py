"""Locked shared accumulation vs privatised partials + merge.

MineBench's clustering codes privatise their partial results and merge
them in a separate phase — the very phase the paper studies.  The naive
alternative is a single shared accumulator behind a lock.  This experiment
builds both implementations as traces and runs them on the simulator:

* **locked** — every update enters a critical section around the shared
  accumulator (the Eyerman–Eeckhout serialization regime);
* **privatised** — updates hit thread-local buffers; the master merges
  one partial per thread afterwards (Algorithm 1, the paper's regime).

The locked version serialises the *entire* update stream; the privatised
version serialises only the merge, which is x·p work instead of N.  The
measured gap is the quantitative justification for the merging-phase
pattern — and hence for the paper's whole problem setting.
"""

from __future__ import annotations

from repro.experiments.report import ExperimentReport, PaperComparison
from repro.pipeline import ExperimentSpec, sim_program_unit
from repro.simx import (
    Compute,
    Load,
    Lock,
    MachineConfig,
    PhaseBegin,
    PhaseEnd,
    Store,
    ThreadTrace,
    TraceProgram,
    Unlock,
)
from repro.util.tables import TextTable

__all__ = ["run", "declare_units", "SPEC"]

_LINE = 64
_SHARED = 0x3000_0000
_PRIVATE = 0x2000_0000
# threads and the updates each contributes; the locked version applies
# them in batches per critical section, the privatised one merges
# partials of this many elements
_N_THREADS = 8
_UPDATES_PER_THREAD = 2000
_BATCH = 64
_MERGE_ELEMENTS = 256


def _locked_program(n_threads: int, updates_per_thread: int, batch: int) -> TraceProgram:
    """Shared accumulator behind one lock, updated in batches."""
    threads = []
    for tid in range(n_threads):
        ops = [PhaseBegin("parallel")]
        done = 0
        while done < updates_per_thread:
            chunk = min(batch, updates_per_thread - done)
            ops.append(Compute(chunk * 12))      # produce the contributions
            ops.append(Lock(0))
            for i in range(max(1, chunk // 8)):  # line-granular updates
                ops.append(Load(_SHARED + (i % 16) * _LINE))
                ops.append(Store(_SHARED + (i % 16) * _LINE))
            ops.append(Compute(chunk * 2))       # apply inside the CS
            ops.append(Unlock(0))
            done += chunk
        ops.append(PhaseEnd("parallel"))
        threads.append(ThreadTrace(tid, ops))
    return TraceProgram("locked", threads)


def _privatised_program(
    n_threads: int, updates_per_thread: int, merge_elements: int
) -> TraceProgram:
    """Thread-local buffers plus a master merge (Algorithm 1)."""
    from repro.simx import Barrier

    threads = []
    merge_lines = max(1, merge_elements // 8)
    for tid in range(n_threads):
        own = _PRIVATE + tid * 0x1_0000
        ops = [PhaseBegin("parallel"), Compute(updates_per_thread * 12)]
        for i in range(max(1, updates_per_thread // 8)):
            ops.append(Store(own + (i % merge_lines) * _LINE))
        ops.append(Compute(updates_per_thread * 2))
        ops.append(PhaseEnd("parallel"))
        if n_threads > 1:
            ops.append(Barrier(0))
        if tid == 0:
            ops.append(PhaseBegin("reduction"))
            for src in range(n_threads):
                for i in range(merge_lines):
                    ops.append(Load(_PRIVATE + src * 0x1_0000 + i * _LINE))
                ops.append(Compute(merge_elements * 2))
            ops.append(PhaseEnd("reduction"))
        if n_threads > 1:
            ops.append(Barrier(1))
        threads.append(ThreadTrace(tid, ops))
    return TraceProgram("privatised", threads)


def declare_units() -> list:
    """Both disciplines' simulator runs as engine work units."""
    cfg = MachineConfig.baseline(n_cores=_N_THREADS)
    return [
        sim_program_unit(
            _locked_program,
            {"n_threads": _N_THREADS, "updates_per_thread": _UPDATES_PER_THREAD,
             "batch": _BATCH},
            cfg, label="locked",
        ),
        sim_program_unit(
            _privatised_program,
            {"n_threads": _N_THREADS, "updates_per_thread": _UPDATES_PER_THREAD,
             "merge_elements": _MERGE_ELEMENTS},
            cfg, label="privatised",
        ),
    ]


def run(units: list, payloads: dict) -> ExperimentReport:
    """Compare the two reduction disciplines on the simulator."""
    report = ExperimentReport(
        "ext-locked-reduction", "Locked shared accumulation vs privatise-and-merge"
    )
    locked, privatised = (payloads[u.key] for u in units)
    t = TextTable(
        title=f"{_N_THREADS} threads x {_UPDATES_PER_THREAD} updates",
        columns=["discipline", "cycles", "lock waits (cycles)", "merge cycles"],
    )
    locked_wait = locked["parallel_wait_cycles"]
    t.add_row(["locked shared", locked["total_cycles"], locked_wait, 0])
    t.add_row([
        "privatised + merge", privatised["total_cycles"],
        0, privatised["reduction_cycles"],
    ])
    report.add_table(t)
    speedup = locked["total_cycles"] / privatised["total_cycles"]
    report.add_comparison(PaperComparison(
        claim="privatised partials + merge beat the locked accumulator",
        paper_value="the MineBench pattern the paper studies",
        measured_value=f"{speedup:.1f}x faster",
        qualitative=True, claim_holds=speedup > 1.5,
    ))
    report.add_comparison(PaperComparison(
        claim="lock waiting dominates the locked version's parallel phase",
        paper_value="serialised critical sections [Eyerman & Eeckhout]",
        measured_value=f"{locked_wait:,} wait cycles",
        qualitative=True,
        claim_holds=locked_wait > locked["total_cycles"] / 4,
    ))
    report.raw.update(locked=locked, privatised=privatised)
    return report


SPEC = ExperimentSpec("ext-locked-reduction", run, declare_units)
