"""False sharing: why the privatised partials must be line-padded.

The paper's workloads privatise their partial results per thread; a naive
implementation packs those buffers contiguously, so buffer boundaries land
inside shared cache lines and neighbouring threads' *independent* updates
ping-pong the line.  This experiment builds both layouts directly as
traces and measures the gap on the simulator — the mechanical footnote to
the merging-phase story (the partials must be padded for the parallel
phase to be truly parallel).
"""

from __future__ import annotations

from repro.experiments.report import ExperimentReport, PaperComparison
from repro.pipeline import ExperimentSpec, sim_program_unit
from repro.simx import Compute, MachineConfig, Store, ThreadTrace, TraceProgram
from repro.util.tables import TextTable

__all__ = ["run", "declare_units", "SPEC"]

_LINE = 64
# threads, each updating its own accumulator this many times
_N_THREADS = 8
_UPDATES = 300


def _accumulation_program(
    n_threads: int, updates: int, padded: bool
) -> TraceProgram:
    """Each thread repeatedly updates its own accumulator.

    Padded: each accumulator on its own cache line.  Packed: accumulators
    are 8-byte slots in one contiguous array, 8 per line — distinct
    threads share lines.
    """
    base = 0x1000_0000
    threads = []
    for tid in range(n_threads):
        addr = base + (tid * _LINE if padded else tid * 8)
        ops = []
        for _ in range(updates):
            ops.append(Store(addr))
            ops.append(Compute(8))
        threads.append(ThreadTrace(tid, ops))
    return TraceProgram(
        name=f"accum-{'padded' if padded else 'packed'}", threads=threads
    )


def declare_units() -> list:
    """Both layouts' simulator runs as engine work units."""
    cfg = MachineConfig.baseline(n_cores=_N_THREADS)
    return [
        sim_program_unit(
            _accumulation_program,
            {"n_threads": _N_THREADS, "updates": _UPDATES, "padded": padded},
            cfg,
            label=f"accum-{'padded' if padded else 'packed'}",
        )
        for padded in (True, False)
    ]


def run(units: list, payloads: dict) -> ExperimentReport:
    """Measure packed vs padded per-thread accumulators."""
    report = ExperimentReport(
        "ext-falsesharing", "False sharing in packed per-thread accumulators"
    )
    results = {
        ("padded" if padded else "packed"): payloads[u.key]
        for padded, u in zip((True, False), units)
    }
    t = TextTable(
        title=f"{_N_THREADS} threads x {_UPDATES} private accumulator updates",
        columns=["layout", "cycles", "invalidations", "cache-to-cache"],
    )
    for name, res in results.items():
        t.add_row([
            name, res["total_cycles"],
            res["invalidations"], res["cache_to_cache"],
        ])
    report.add_table(t)
    slowdown = results["packed"]["total_cycles"] / results["padded"]["total_cycles"]
    report.add_comparison(PaperComparison(
        claim="packed accumulators ping-pong: large slowdown vs padded",
        paper_value="(mechanical expectation: >2x)",
        measured_value=f"{slowdown:.1f}x slower",
        qualitative=True, claim_holds=slowdown > 2.0,
    ))
    report.add_comparison(PaperComparison(
        claim="padded layout causes no invalidation traffic at all",
        paper_value="0 invalidations",
        measured_value=str(results["padded"]["invalidations"]),
        qualitative=True,
        claim_holds=results["padded"]["invalidations"] == 0,
    ))
    report.raw["results"] = results
    return report


SPEC = ExperimentSpec("ext-falsesharing", run, declare_units)
