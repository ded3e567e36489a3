"""Fig 2 — application characterisation.

Four panels:

* (a) application scalability to 16 cores (simulator);
* (b) serial-section time vs cores, normalised (simulator);
* (c) the same on "real hardware" (the deterministic model of the
  paper's 2-socket Xeon E5520);
* (d) model accuracy: extended-model-predicted serial time over simulated
  serial time.
"""

from __future__ import annotations

from repro.core import measured as measured_model
from repro.core.accuracy import evaluate_accuracy
from repro.experiments import table2
from repro.experiments.report import ExperimentReport, PaperComparison, series_table
from repro.pipeline import (
    HARDWARE_MODEL,
    SWEEP_POINT,
    ExperimentSpec,
    hardware_model_units,
    sweep_breakdowns,
)
from repro.workloads import default_workloads
from repro.workloads.instrument import (
    extract_parameters,
    serial_growth_curve,
    speedup_curve,
)

__all__ = ["run", "declare_units", "SPEC"]

#: measured value of a 16-core claim when the sweep leaves out 16 threads
NOT_SWEPT = "p=16 not swept"

#: panel (c)'s thread counts: the modelled two-socket Xeon E5520 has 8 cores
_HW_THREAD_COUNTS = (1, 2, 4, 8)


def declare_units(scale: float, thread_counts: tuple, mem_scale: int) -> list:
    """Fig 2's work units: Table II's simulator sweep, then panel (c)'s
    hardware-model runs of the same workloads."""
    workloads = default_workloads(scale).values()
    return table2.sweep_units(workloads, thread_counts, mem_scale) + [
        u for w in workloads for u in hardware_model_units(w, _HW_THREAD_COUNTS)
    ]


def run(
    units: list,
    payloads: dict,
    scale: float = 0.15,
    thread_counts: tuple = (1, 2, 4, 8, 16),
    mem_scale: int = 2,
) -> ExperimentReport:
    """Regenerate all four panels of Fig 2."""
    report = ExperimentReport("fig2", "Application characterisation")
    sim = {w.name: b for w, b in sweep_breakdowns(
        [u for u in units if u.kind == SWEEP_POINT], payloads, len(thread_counts))}
    hw = {w.name: b for w, b in sweep_breakdowns(
        [u for u in units if u.kind == HARDWARE_MODEL], payloads,
        len(_HW_THREAD_COUNTS))}

    # ── (a) scalability ───────────────────────────────────────────────────
    speedups = {name: speedup_curve(b) for name, b in sim.items()}
    report.add_table(series_table(
        "Fig 2(a) — application scalability (speedup vs cores)",
        "cores", list(thread_counts),
        {name: [curve[p] for p in thread_counts] for name, curve in speedups.items()},
    ))
    # the 2(a)/2(b) claims are about 16 cores: without that point they
    # cannot hold, and say so instead of failing the run
    swept16 = 16 in thread_counts
    for name in ("kmeans", "fuzzy"):
        report.add_comparison(PaperComparison(
            claim=f"2(a): {name} scales near-linearly to 16 cores",
            paper_value="speedup close to 16",
            measured_value=f"{speedups[name][16]:.1f}" if swept16 else NOT_SWEPT,
            qualitative=True, claim_holds=swept16 and speedups[name][16] > 11.0,
        ))
    report.add_comparison(PaperComparison(
        claim="2(a): hop scales worse than kmeans/fuzzy",
        paper_value="~13.5 vs ~16",
        measured_value=(f"{speedups['hop'][16]:.1f} vs {speedups['kmeans'][16]:.1f}"
                        if swept16 else NOT_SWEPT),
        qualitative=True,
        claim_holds=swept16 and (speedups["hop"][16]
                                 < min(speedups["kmeans"][16], speedups["fuzzy"][16])),
    ))

    # ── (b) serial-section growth (simulated) ─────────────────────────────
    growth = {name: serial_growth_curve(b) for name, b in sim.items()}
    report.add_table(series_table(
        "Fig 2(b) — serial section time, normalised to 1 core (simulated)",
        "cores", list(thread_counts),
        {name: [curve[p] for p in thread_counts] for name, curve in growth.items()},
    ))
    for name, curve in growth.items():
        report.add_comparison(PaperComparison(
            claim=f"2(b): {name} serial section grows significantly by 16 cores",
            paper_value="grows with cores",
            measured_value=f"{curve[16]:.2f}x" if swept16 else NOT_SWEPT,
            qualitative=True, claim_holds=swept16 and curve[16] > 1.5,
        ))

    # ── (c) hardware validation ───────────────────────────────────────────
    hw_growth = {name: serial_growth_curve(b) for name, b in hw.items()}
    report.add_table(series_table(
        "Fig 2(c) — serial section time on hardware (model backend)",
        "cores", list(_HW_THREAD_COUNTS),
        {n: [c[p] for p in _HW_THREAD_COUNTS] for n, c in hw_growth.items()},
    ))
    for name, curve in hw_growth.items():
        report.add_comparison(PaperComparison(
            claim=f"2(c): {name} serial growth also appears on hardware",
            paper_value="similar to simulation",
            measured_value=f"{curve[max(_HW_THREAD_COUNTS)]:.2f}x",
            qualitative=True,
            claim_holds=curve[max(_HW_THREAD_COUNTS)] > 1.2,
        ))

    # ── (d) model accuracy ────────────────────────────────────────────────
    acc_rows: dict[str, list[float]] = {}
    multi = [p for p in thread_counts if p > 1]
    for name, breakdowns in sim.items():
        ep = extract_parameters(breakdowns, name)
        mp = ep.to_measured_params()
        predicted = {
            p: float(measured_model.serial_time_normalised(mp, p)) for p in multi
        }
        measured_curve = {p: growth[name][p] for p in multi}
        rep = evaluate_accuracy(predicted, measured_curve)
        acc_rows[name] = list(rep.ratios)
        report.add_comparison(PaperComparison(
            claim=f"2(d): {name} model tracks serial growth within ~20%",
            paper_value="-18%..+14%",
            measured_value=(
                f"-{100 * rep.max_underestimation:.0f}%..+"
                f"{100 * rep.max_overestimation:.0f}%"
            ),
            qualitative=True,
            claim_holds=rep.within(0.25),
        ))
    report.add_table(series_table(
        "Fig 2(d) — model accuracy (predicted / simulated serial time)",
        "cores", multi, acc_rows,
    ))

    report.raw.update(speedups=speedups, growth=growth, hw_growth=hw_growth)
    return report


SPEC = ExperimentSpec("fig2", run, declare_units)
