"""Fig 2 — application characterisation.

Four panels:

* (a) application scalability to 16 cores (simulator);
* (b) serial-section time vs cores, normalised (simulator);
* (c) the same on "real hardware" (the modelled Xeon by default, the
  actual host with ``backend='process'``);
* (d) model accuracy: extended-model-predicted serial time over simulated
  serial time.
"""

from __future__ import annotations

import numpy as np

from repro.core import measured as measured_model
from repro.core.accuracy import evaluate_accuracy
from repro.experiments.report import ExperimentReport, PaperComparison, series_table
from repro.pipeline import (
    ExperimentSpec,
    Stage,
    breakdown_from_payload,
    hardware_units,
    resolve_units,
    sim_sweep_units,
    simulate_breakdowns,
)
from repro.workloads import default_workloads
from repro.workloads.instrument import (
    extract_parameters,
    serial_growth_curve,
    speedup_curve,
)

__all__ = ["run", "declare_units", "declare_sim_units", "declare_hardware_units", "SPEC"]


def declare_sim_units(
    scale: float = 0.15,
    thread_counts: tuple = (1, 2, 4, 8, 16),
    mem_scale: int = 2,
) -> list:
    """Fig 2's simulator sweep as engine work units — identical to
    Table II's, which is exactly why the engine's global dedup pays off."""
    units = []
    for workload in default_workloads(scale).values():
        units.extend(sim_sweep_units(workload, thread_counts, mem_scale=mem_scale))
    return units


def declare_hardware_units(
    scale: float = 0.15,
    hw_thread_counts: tuple = (1, 2, 4, 8),
    hardware_backend: str = "model",
) -> list:
    """Panel (c)'s hardware executions as engine work units (the
    ``process`` backend's wall-clock runs are declared non-cacheable)."""
    units = []
    for workload in default_workloads(scale).values():
        units.extend(hardware_units(workload, hw_thread_counts,
                                    backend=hardware_backend))
    return units


def declare_units(**options) -> list:
    """Every unit Fig 2 needs (simulator sweep + hardware runs)."""
    return SPEC.declare_units(**options)


def run(
    scale: float = 0.15,
    thread_counts: tuple = (1, 2, 4, 8, 16),
    hw_thread_counts: tuple = (1, 2, 4, 8),
    mem_scale: int = 2,
    hardware_backend: str = "model",
) -> ExperimentReport:
    """Regenerate all four panels of Fig 2."""
    report = ExperimentReport("fig2", "Application characterisation")
    workloads = default_workloads(scale)

    sim = {
        name: simulate_breakdowns(w, thread_counts, mem_scale=mem_scale)
        for name, w in workloads.items()
    }

    # ── (a) scalability ───────────────────────────────────────────────────
    speedups = {name: speedup_curve(b) for name, b in sim.items()}
    report.add_table(series_table(
        "Fig 2(a) — application scalability (speedup vs cores)",
        "cores", list(thread_counts),
        {name: [curve[p] for p in thread_counts] for name, curve in speedups.items()},
    ))
    for name in ("kmeans", "fuzzy"):
        report.add_comparison(PaperComparison(
            claim=f"2(a): {name} scales near-linearly to 16 cores",
            paper_value="speedup close to 16",
            measured_value=f"{speedups[name][16]:.1f}",
            qualitative=True, claim_holds=speedups[name][16] > 11.0,
        ))
    report.add_comparison(PaperComparison(
        claim="2(a): hop scales worse than kmeans/fuzzy",
        paper_value="~13.5 vs ~16",
        measured_value=f"{speedups['hop'][16]:.1f} vs {speedups['kmeans'][16]:.1f}",
        qualitative=True,
        claim_holds=speedups["hop"][16] < min(speedups["kmeans"][16], speedups["fuzzy"][16]),
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
            measured_value=f"{curve[16]:.2f}x",
            qualitative=True, claim_holds=curve[16] > 1.5,
        ))

    # ── (c) hardware validation ───────────────────────────────────────────
    hw_growth = {}
    for name, w in workloads.items():
        units = hardware_units(w, hw_thread_counts, backend=hardware_backend)
        payloads = resolve_units(units)
        hw = {p: breakdown_from_payload(payloads[u.key])
              for p, u in zip(hw_thread_counts, units)}
        hw_growth[name] = serial_growth_curve(hw)
    report.add_table(series_table(
        f"Fig 2(c) — serial section time on hardware ({hardware_backend} backend)",
        "cores", list(hw_thread_counts),
        {n: [c[p] for p in hw_thread_counts] for n, c in hw_growth.items()},
    ))
    for name, curve in hw_growth.items():
        report.add_comparison(PaperComparison(
            claim=f"2(c): {name} serial growth also appears on hardware",
            paper_value="similar to simulation",
            measured_value=f"{curve[max(hw_thread_counts)]:.2f}x",
            qualitative=True,
            claim_holds=curve[max(hw_thread_counts)] > 1.2,
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


SPEC = ExperimentSpec("fig2", run, stages=(
    Stage("sim-sweep", declare_sim_units),
    Stage("hardware", declare_hardware_units),
))
