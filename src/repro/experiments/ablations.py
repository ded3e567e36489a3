"""Ablation studies beyond the paper's figures.

Design-choice probes DESIGN.md commits to:

* **perf-law sweep** — how the optimal symmetric core size moves with the
  Pollack exponent theta (the paper fixes theta = 0.5);
* **topology sweep** — Fig 7(a) re-run with exact torus / ring / crossbar
  communication growth instead of the mesh closed form;
* **reduction-strategy ablation** — measured (simulator), not modelled:
  kmeans with serial vs tree vs parallel merging;
* **optimal-r map** — the Fig 4 conclusion as a surface over the
  (fcon, fored) plane.
"""

from __future__ import annotations

import numpy as np

from repro.core import communication as comm
from repro.core import merging, optimizer
from repro.core.params import AppParams
from repro.core.perf import PollackPerf
from repro.experiments.report import ExperimentReport, PaperComparison, series_table
from repro.noc.comm_cost import topology_growcomm
from repro.pipeline import ExperimentSpec, Stage, sim_sweep_units, simulate_breakdowns
from repro.util.tables import TextTable
from repro.workloads.datasets import make_blobs
from repro.workloads.instrument import extract_parameters
from repro.workloads.kmeans import KMeansWorkload

__all__ = [
    "run_perf_law",
    "run_topology",
    "run_reduction_strategy",
    "run_optimal_r_map",
    "run_machine_model",
    "run",
    "declare_units_reduction",
    "declare_units_machine",
    "SPECS",
]


def _reduction_workloads(scale: float = 0.08) -> dict:
    """The three merge-strategy variants of the kmeans workload."""
    n = max(300, int(17695 * scale))
    return {
        strategy: KMeansWorkload(
            make_blobs(n, 9, 8, seed=11),
            max_iterations=3, tolerance=1e-12, reduction_strategy=strategy,
        )
        for strategy in ("serial", "tree", "parallel")
    }


def declare_units_reduction(
    scale: float = 0.08, thread_counts: tuple = (1, 2, 4, 8, 16)
) -> list:
    """The reduction-strategy ablation's sweep as engine work units."""
    units = []
    for wl in _reduction_workloads(scale).values():
        units.extend(sim_sweep_units(wl, thread_counts, mem_scale=2))
    return units


def _machine_variants(n_cores: int) -> dict:
    """The machine-model ablation's five simulator configurations."""
    from repro.simx import MachineConfig

    return {
        "baseline": MachineConfig.baseline(n_cores=n_cores),
        "banked dram": MachineConfig(n_cores=n_cores, dram="banked"),
        "contended bus": MachineConfig(n_cores=n_cores, bus_occupancy=4),
        "mesh interconnect": MachineConfig.baseline(n_cores, interconnect="mesh"),
        "msi protocol": MachineConfig(n_cores=n_cores, coherence_protocol="msi"),
    }


def _machine_workload(scale: float) -> KMeansWorkload:
    n = max(300, int(17695 * scale))
    return KMeansWorkload(
        make_blobs(n, 9, 8, seed=11), max_iterations=3, tolerance=1e-12
    )


def declare_units_machine(
    scale: float = 0.06, thread_counts: tuple = (1, 2, 4, 8, 16)
) -> list:
    """The machine-model ablation's sweep as engine work units."""
    wl = _machine_workload(scale)
    units = []
    for cfg in _machine_variants(max(thread_counts)).values():
        units.extend(sim_sweep_units(wl, thread_counts, mem_scale=2, config=cfg))
    return units


def run_perf_law(n: int = 256) -> ExperimentReport:
    """Optimal symmetric design vs the area-performance exponent."""
    report = ExperimentReport("ablation-perf", "Pollack-exponent sensitivity")
    params = AppParams(f=0.99, fcon_share=0.60, fored_share=0.80)
    thetas = [0.3, 0.4, 0.5, 0.6, 0.7, 0.85, 1.0]
    rows = []
    for theta in thetas:
        law = PollackPerf(theta)
        best = merging.best_symmetric(params, n, perf=law)
        rows.append((theta, best.r, best.speedup))
    t = TextTable(
        title="optimal symmetric design vs perf(r) = r^theta",
        columns=["theta", "optimal r", "speedup"],
    )
    for theta, r, sp in rows:
        t.add_row([theta, r, sp])
    report.add_table(t)
    speedups = [sp for _, _, sp in rows]
    report.add_comparison(PaperComparison(
        claim="stronger area returns monotonically raise achievable speedup",
        paper_value="monotone in theta",
        measured_value=f"{speedups[0]:.1f}..{speedups[-1]:.1f}",
        qualitative=True,
        claim_holds=all(b >= a - 1e-9 for a, b in zip(speedups, speedups[1:])),
    ))
    report.raw["rows"] = rows
    return report


def run_topology(n: int = 256) -> ExperimentReport:
    """Fig 7(a) across interconnect topologies (exact growth laws)."""
    report = ExperimentReport("ablation-topology", "Interconnect sensitivity (Fig 7a)")
    params = AppParams(f=0.99, fcon_share=0.60, fored_share=0.80)
    sizes = merging.power_of_two_sizes(n)
    series = {"mesh (Eq 8)": np.asarray(
        comm.speedup_symmetric_comm(params, n, sizes)
    )}
    peaks = {"mesh (Eq 8)": float(series["mesh (Eq 8)"].max())}
    for topo in ("mesh", "torus", "ring", "hypercube", "crossbar"):
        growth = topology_growcomm(topo)
        sp = np.asarray(
            comm.speedup_symmetric_comm(params, n, sizes, comm=growth)
        )
        series[f"{topo} (exact)"] = sp
        peaks[f"{topo} (exact)"] = float(sp.max())
    report.add_table(series_table(
        "Fig 7(a) under different topologies",
        "r (BCEs/core)", [int(s) for s in sizes], series,
    ))
    report.add_comparison(PaperComparison(
        claim="richer networks give higher peaks: "
              "ring < mesh < torus < hypercube < crossbar",
        paper_value="(ordering)",
        measured_value=", ".join(f"{k}={v:.1f}" for k, v in peaks.items()),
        qualitative=True,
        claim_holds=(
            peaks["ring (exact)"] < peaks["mesh (exact)"]
            < peaks["torus (exact)"] < peaks["hypercube (exact)"]
            < peaks["crossbar (exact)"]
        ),
    ))
    report.raw["peaks"] = peaks
    return report


def run_reduction_strategy(
    scale: float = 0.08, thread_counts: tuple = (1, 2, 4, 8, 16)
) -> ExperimentReport:
    """Measured (simulator) ablation of the merge implementation."""
    report = ExperimentReport(
        "ablation-reduction", "Reduction strategy, measured on the simulator"
    )
    rows = {}
    for strategy, wl in _reduction_workloads(scale).items():
        breakdowns = simulate_breakdowns(wl, thread_counts, mem_scale=2)
        top = max(thread_counts)
        rows[strategy] = {
            "reduction@1": breakdowns[1].reduction,
            f"reduction@{top}": breakdowns[top].reduction,
            "growth": breakdowns[top].reduction / max(breakdowns[1].reduction, 1e-9),
            "fored": extract_parameters(breakdowns, strategy).fored_rel,
        }
    t = TextTable(
        title="kmeans merge cost by strategy (cycles on the master)",
        columns=["strategy", "reduction@1", f"reduction@{max(thread_counts)}",
                 "growth factor", "fitted fored"],
    )
    for s, r in rows.items():
        t.add_row([s, r["reduction@1"], r[f"reduction@{max(thread_counts)}"],
                   round(r["growth"], 2), round(r["fored"], 2)])
    report.add_table(t)
    report.add_comparison(PaperComparison(
        claim="tree merge grows slower than serial merge",
        paper_value="log vs linear",
        measured_value=f"{rows['tree']['growth']:.1f}x vs {rows['serial']['growth']:.1f}x",
        qualitative=True,
        claim_holds=rows["tree"]["growth"] < rows["serial"]["growth"],
    ))
    report.raw["rows"] = rows
    return report


def run_optimal_r_map(n: int = 256) -> ExperimentReport:
    """Optimal symmetric r over the (fcon, fored) plane for f = 0.99."""
    report = ExperimentReport("ablation-rmap", "Optimal core size map")
    cons = [0.9, 0.75, 0.6, 0.45]
    ores = [0.05, 0.2, 0.4, 0.6, 0.8, 0.95]
    grid = optimizer.optimal_r_map(0.99, n, cons, ores)
    t = TextTable(
        title="optimal r (BCEs/core), f=0.99, linear growth",
        columns=["fcon \\ fored", *[f"{o:.0%}" for o in ores]],
    )
    for i, c in enumerate(cons):
        t.add_row([f"{c:.0%}", *[float(v) for v in grid[i]]])
    report.add_table(t)
    report.add_comparison(PaperComparison(
        claim="optimal r is non-decreasing in the overhead share",
        paper_value="shift toward fewer, larger cores",
        measured_value=f"rows min..max: {grid.min():.0f}..{grid.max():.0f}",
        qualitative=True,
        claim_holds=bool(np.all(np.diff(grid, axis=1) >= 0)),
    ))
    report.raw["grid"] = grid
    return report


def run_machine_model(
    scale: float = 0.06, thread_counts: tuple = (1, 2, 4, 8, 16)
) -> ExperimentReport:
    """Are the extracted parameters robust to the simulator's timing model?

    Re-extracts kmeans' Table II parameters under four machine variants —
    flat vs banked DRAM crossed with an infinite-bandwidth vs arbitrated
    bus — plus the MSI protocol.  The paper's conclusions rest on the
    *existence and sign* of the growth, not on one latency table; this
    ablation checks that directly.
    """
    report = ExperimentReport(
        "ablation-machine", "Parameter robustness across machine models"
    )
    wl = _machine_workload(scale)
    variants = _machine_variants(max(thread_counts))
    t = TextTable(
        title="kmeans parameters per machine model",
        columns=["machine", "serial (%)", "fcon (%)", "fored (%)", "alpha"],
    )
    extracted = {}
    for name, cfg in variants.items():
        breakdowns = simulate_breakdowns(wl, thread_counts, mem_scale=2, config=cfg)
        ep = extract_parameters(breakdowns, name)
        extracted[name] = ep
        t.add_row([
            name, round(ep.serial_pct, 3), round(100 * ep.fcon_share, 1),
            round(100 * ep.fored_rel, 1), round(ep.growth_alpha, 2),
        ])
    report.add_table(t)
    report.add_comparison(PaperComparison(
        claim="the growing merge exists under every machine model",
        paper_value="fored > 0 everywhere",
        measured_value=", ".join(
            f"{n}={100 * e.fored_rel:.0f}%" for n, e in extracted.items()
        ),
        qualitative=True,
        claim_holds=all(e.fored_rel > 0.05 for e in extracted.values()),
    ))
    shares = [e.fcon_share for e in extracted.values()]
    report.add_comparison(PaperComparison(
        claim="the fcon/fred split is stable across machine models",
        paper_value="within ~15 points",
        measured_value=f"fcon {100 * min(shares):.0f}%..{100 * max(shares):.0f}%",
        qualitative=True, claim_holds=max(shares) - min(shares) < 0.15,
    ))
    report.raw["extracted"] = extracted
    return report


def run() -> ExperimentReport:
    """All ablations, concatenated into one report."""
    combined = ExperimentReport("ablations", "Design-choice ablations")
    for sub in (run_perf_law(), run_topology(), run_reduction_strategy(), run_optimal_r_map()):
        combined.tables.extend(sub.tables)
        combined.comparisons.extend(sub.comparisons)
        combined.notes.extend(sub.notes)
        combined.raw[sub.experiment_id] = sub.raw
    return combined


def _declare_units_aggregate() -> list:
    """The aggregate runner takes no options, so its only simulator work
    is the reduction-strategy ablation at its defaults."""
    return declare_units_reduction()


SPECS = (
    ExperimentSpec("ablation-perf", run_perf_law),
    ExperimentSpec("ablation-topology", run_topology),
    ExperimentSpec(
        "ablation-reduction", run_reduction_strategy,
        stages=(Stage("sim-sweep", declare_units_reduction),),
    ),
    ExperimentSpec("ablation-rmap", run_optimal_r_map),
    ExperimentSpec(
        "ablation-machine", run_machine_model,
        stages=(Stage("sim-sweep", declare_units_machine),),
    ),
    ExperimentSpec(
        "ablations", run,
        stages=(Stage("sim-sweep", _declare_units_aggregate),),
    ),
)
