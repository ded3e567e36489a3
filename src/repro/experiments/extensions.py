"""Extension experiments: models the paper names as future work, plus
probes beyond its scope.

* ``ext-critical`` — the combined critical-section + merging model
  (Section VI: "these can [be] combined ... to improve accuracy");
* ``ext-energy`` — the merging model under energy/EDP objectives;
* ``ext-scaled`` — weak (Gustafson) scaling with merging phases;
* ``ext-contention`` — Fig 7(a) with the bottleneck-link mesh model in
  place of Eq 8's balanced-links assumption;
* ``ext-acmp-sim`` — Eq 5's structure validated in *simulation*: the same
  workload on a simulated ACMP (big core 0) vs a symmetric CMP.
"""

from __future__ import annotations

import numpy as np

from repro.core import communication as comm
from repro.core import merging
from repro.core.critical import CriticalParams, best_symmetric_cs, speedup_symmetric_cs
from repro.core.energy import PowerModel, best_symmetric_energy
from repro.core.params import AppParams
from repro.core.scaled import (
    scaled_speedup_gustafson,
    scaled_speedup_limit,
    scaled_speedup_merging,
)
from repro.experiments.report import ExperimentReport, PaperComparison, series_table
from repro.noc.contention import contended_growcomm
from repro.pipeline import ExperimentSpec, breakdown_from_payload, sim_point_unit
from repro.util.tables import TextTable

__all__ = [
    "run_critical",
    "run_energy",
    "run_scaled",
    "run_contention",
    "run_acmp_sim",
    "run_crossover_sim",
    "declare_units_crossover",
    "declare_units_acmp",
    "SPECS",
]


def _base() -> AppParams:
    return AppParams(f=0.99, fcon_share=0.60, fored_share=0.80)


def run_critical(n: int = 256) -> ExperimentReport:
    """Combined critical-section + merging model across cs shares."""
    report = ExperimentReport(
        "ext-critical", "Critical sections combined with merging phases"
    )
    sizes = merging.power_of_two_sizes(n)
    series = {"fcs=0 (Eq 4)": np.asarray(merging.speedup_symmetric(_base(), n, sizes))}
    bests = {}
    for share in (0.01, 0.05, 0.15, 0.30):
        p = CriticalParams(base=_base(), fcs_share=share)
        series[f"fcs={share:.0%}"] = np.asarray(
            speedup_symmetric_cs(p, n, sizes, mode="bottleneck")
        )
        bests[share] = best_symmetric_cs(p, n)
    report.add_table(series_table(
        "combined model: symmetric speedup vs r (bottleneck contention)",
        "r (BCEs/core)", [int(s) for s in sizes], series,
    ))
    report.add_comparison(PaperComparison(
        claim="negligible critical sections (Table II levels) change nothing",
        paper_value="clustering apps: cs <= 0.004%",
        measured_value=f"best {best_symmetric_cs(CriticalParams(_base(), 1e-5), n)[1]:.1f} "
                       f"vs Eq4 {merging.best_symmetric(_base(), n).speedup:.1f}",
        qualitative=True,
        claim_holds=abs(
            best_symmetric_cs(CriticalParams(_base(), 1e-5), n)[1]
            - merging.best_symmetric(_base(), n).speedup
        ) < 0.1,
    ))
    report.add_comparison(PaperComparison(
        claim="the two limiters compose: heavier locks lower every design point",
        paper_value="(monotone)",
        measured_value=", ".join(f"{s:.0%}->{sp:.1f}" for s, (_, sp) in bests.items()),
        qualitative=True,
        claim_holds=all(
            bests[a][1] >= bests[b][1] - 1e-9
            for a, b in zip(sorted(bests), sorted(bests)[1:])
        ),
    ))

    # ACS table: migrating contended critical sections to the large core
    # [Suleman et al.], across large-core sizes
    from repro.core.critical import speedup_asymmetric_cs

    cs = CriticalParams(base=_base(), fcs_share=0.10)
    acs_table = TextTable(
        title="ACMP with 10% critical sections: ACS on vs off (r=1 small cores)",
        columns=["rl", "without ACS", "with ACS", "gain"],
    )
    acs_gains = []
    for rl in (16.0, 64.0, 128.0):
        off = float(speedup_asymmetric_cs(cs, n, rl, r=1.0, accelerate_critical=False))
        on = float(speedup_asymmetric_cs(cs, n, rl, r=1.0, accelerate_critical=True))
        acs_gains.append(on / off)
        acs_table.add_row([int(rl), round(off, 1), round(on, 1), f"{on / off:.2f}x"])
    report.add_table(acs_table)
    report.add_comparison(PaperComparison(
        claim="ACS (critical sections on the big core) always helps, more "
              "with bigger cores",
        paper_value="[Suleman et al. ASPLOS'09]",
        measured_value=" -> ".join(f"{g:.2f}x" for g in acs_gains),
        qualitative=True,
        claim_holds=all(g >= 1.0 for g in acs_gains)
        and acs_gains[-1] >= acs_gains[0],
    ))
    report.raw["bests"] = bests
    report.raw["acs_gains"] = acs_gains
    return report


def run_energy(n: int = 256) -> ExperimentReport:
    """Energy/EDP-optimal designs under merging overhead."""
    report = ExperimentReport("ext-energy", "Energy-aware design points")
    pm = PowerModel(idle_fraction=0.3)
    t = TextTable(
        title="optimal symmetric design per objective (f=0.99, fcon=60%)",
        columns=["fored", "perf: r", "perf: x", "EDP: r", "EDP: x",
                 "perf/W: r", "perf/W"],
    )
    rows = {}
    for ored in (0.10, 0.40, 0.80):
        p = AppParams(f=0.99, fcon_share=0.60, fored_share=ored)
        perf_d = best_symmetric_energy(p, n, "speedup", pm)
        edp_d = best_symmetric_energy(p, n, "edp", pm)
        ppw_d = best_symmetric_energy(p, n, "perf_per_watt", pm)
        rows[ored] = (perf_d, edp_d, ppw_d)
        t.add_row([
            f"{ored:.0%}", perf_d.r, round(perf_d.speedup, 1),
            edp_d.r, round(edp_d.speedup, 1),
            ppw_d.r, round(ppw_d.perf_per_watt, 3),
        ])
    report.add_table(t)
    report.add_comparison(PaperComparison(
        claim="conclusion (b) holds for EDP too: overhead grows the optimal core",
        paper_value="(monotone in fored)",
        measured_value=" -> ".join(f"{rows[o][1].r:.0f}" for o in sorted(rows)),
        qualitative=True,
        claim_holds=all(
            rows[a][1].r <= rows[b][1].r
            for a, b in zip(sorted(rows), sorted(rows)[1:])
        ),
    ))
    report.raw["rows"] = rows
    return report


def run_scaled() -> ExperimentReport:
    """Weak scaling (Gustafson) with merging phases."""
    report = ExperimentReport("ext-scaled", "Weak scaling with merging phases")
    p = _base()
    cores = np.array([1, 4, 16, 64, 256, 1024, 4096], dtype=np.float64)
    gus = np.asarray(scaled_speedup_gustafson(p.f, cores))
    lin = np.asarray(scaled_speedup_merging(p, cores))
    log = np.asarray(scaled_speedup_merging(p, cores, "log"))
    report.add_table(series_table(
        "scaled speedup (work grows with cores)",
        "cores", [int(c) for c in cores],
        {"Gustafson": gus, "merging (linear)": lin, "merging (log)": log},
    ))
    limit = scaled_speedup_limit(p)
    report.add_comparison(PaperComparison(
        claim="weak scaling saturates at f/fored instead of growing unboundedly",
        paper_value=f"limit {limit:.0f}",
        measured_value=f"{float(lin[-1]):.0f} at {int(cores[-1])} cores",
        qualitative=True,
        claim_holds=float(lin[-1]) < limit and float(lin[-1]) > 0.8 * limit,
    ))
    report.add_comparison(PaperComparison(
        claim="log-growth merges keep weak scaling alive far longer",
        paper_value="(ordering)",
        measured_value=f"{float(log[-1]):.0f} vs {float(lin[-1]):.0f}",
        qualitative=True, claim_holds=float(log[-1]) > 2 * float(lin[-1]),
    ))
    report.raw.update(cores=cores, gustafson=gus, linear=lin, log=log)
    return report


def run_contention(n: int = 256) -> ExperimentReport:
    """Fig 7(a) with bottleneck-link contention instead of Eq 8."""
    report = ExperimentReport(
        "ext-contention", "Mesh link contention vs Eq 8's balanced-links premise"
    )
    p = _base()
    sizes = merging.power_of_two_sizes(n)
    eq8 = np.asarray(comm.speedup_symmetric_comm(p, n, sizes))
    contended = np.asarray(
        comm.speedup_symmetric_comm(p, n, sizes, comm=contended_growcomm("all_to_all"))
    )
    report.add_table(series_table(
        "Fig 7(a) under exact bottleneck-link routing",
        "r (BCEs/core)", [int(s) for s in sizes],
        {"Eq 8 (balanced links)": eq8, "bottleneck link (XY routed)": contended},
    ))
    i8, ic = int(np.argmax(eq8)), int(np.argmax(contended))
    report.add_comparison(PaperComparison(
        claim="Eq 8 is optimistic: contention lowers the peak",
        paper_value="'still provides an optimistic estimate' (Sec V.E)",
        measured_value=f"{float(contended[ic]):.1f} vs {float(eq8[i8]):.1f}",
        qualitative=True, claim_holds=float(contended[ic]) <= float(eq8[i8]),
    ))
    report.add_comparison(PaperComparison(
        claim="contention pushes the optimum to the same or larger cores",
        paper_value="r >= 8",
        measured_value=f"r={int(sizes[ic])}",
        qualitative=True, claim_holds=sizes[ic] >= sizes[i8],
    ))
    report.raw.update(eq8=eq8, contended=contended, sizes=sizes)
    return report


# ext-crossover-sim's chip budget in BCEs, and its histogram's size
_CROSSOVER_BUDGET = 16
_CROSSOVER_ITEMS = 20000
_CROSSOVER_BINS = 8192


def _crossover_designs() -> list:
    """Every power-of-two split of the BCE budget into (r, cores, config)."""
    from repro.simx import MachineConfig

    designs = []
    r = 1
    while r <= _CROSSOVER_BUDGET:
        nc = _CROSSOVER_BUDGET // r
        designs.append((r, nc, MachineConfig(
            n_cores=nc,
            core_perf_factors=tuple(float(r) ** 0.5 for _ in range(nc)),
        )))
        r *= 2
    return designs


def declare_units_crossover() -> list:
    """Every fixed-budget design's simulator run as an engine work unit."""
    from repro.workloads.histogram import HistogramWorkload

    wl = HistogramWorkload(n_items=_CROSSOVER_ITEMS, n_bins=_CROSSOVER_BINS, seed=7)
    return [sim_point_unit(wl, nc, 2, cfg) for _, nc, cfg in _crossover_designs()]


def run_crossover_sim(units: list, payloads: dict) -> ExperimentReport:
    """Conclusion (b) reproduced in full-system simulation.

    Every symmetric design of a fixed BCE budget is *built* (nc cores of
    r BCEs, perf factor sqrt(r)) and a merge-heavy workload run on each.
    Under the constant-serial-section assumption the most-cores design
    should win; mechanically, the growing merge (serial accumulation of
    nc partial histograms, paid in coherence misses) makes an interior
    core size optimal — the paper's "fewer but more capable cores", with
    no analytic model in the loop.
    """
    report = ExperimentReport(
        "ext-crossover-sim",
        "The fewer-larger-cores crossover, measured in simulation",
    )
    cycles = {r: int(breakdown_from_payload(payloads[u.key]).total)
              for (r, _, _), u in zip(_crossover_designs(), units)}
    t = TextTable(
        title=(f"histogram (x={_CROSSOVER_BINS} bins) on every "
               f"{_CROSSOVER_BUDGET}-BCE symmetric design"),
        columns=["r (BCEs/core)", "cores", "cycles", "speedup vs r=1"],
    )
    for r, c in cycles.items():
        t.add_row([r, _CROSSOVER_BUDGET // r, c, round(cycles[1] / c, 2)])
    report.add_table(t)
    best_r = min(cycles, key=cycles.get)
    report.add_comparison(PaperComparison(
        claim="max-core-count design is NOT the fastest (conclusion (b), simulated)",
        paper_value="r=1 never yields the highest speedup (Fig 4, Linear)",
        measured_value=f"best r={best_r}",
        qualitative=True, claim_holds=best_r > 1,
    ))
    report.add_comparison(PaperComparison(
        claim="the optimum is interior: one giant core is not best either",
        paper_value="peaks at intermediate r",
        measured_value=f"r={best_r} of 1..{_CROSSOVER_BUDGET}",
        qualitative=True, claim_holds=best_r < _CROSSOVER_BUDGET,
    ))
    report.raw["cycles"] = cycles
    return report


def _acmp_workload(scale: float):
    from repro.workloads.datasets import make_blobs
    from repro.workloads.kmeans import KMeansWorkload

    n_pts = max(300, int(17695 * scale))
    return KMeansWorkload(
        make_blobs(n_pts, 9, 8, seed=11), max_iterations=3, tolerance=1e-12
    )


# ext-acmp-sim's big core in BCEs, and its thread (and core) count
_ACMP_RL = 16
_ACMP_THREADS = 8


def declare_units_acmp(scale: float) -> list:
    """Both machines' kmeans runs as engine work units: a symmetric CMP
    and an ACMP whose core 0 is the big core."""
    from repro.simx import MachineConfig

    wl = _acmp_workload(scale)
    return [
        sim_point_unit(wl, _ACMP_THREADS, 2, cfg) for cfg in (
            MachineConfig.baseline(n_cores=_ACMP_THREADS),
            MachineConfig.asymmetric(rl=_ACMP_RL, n_small=_ACMP_THREADS - 1, r=1),
        )
    ]


def run_acmp_sim(units: list, payloads: dict, scale: float = 0.08) -> ExperimentReport:
    """Simulated ACMP vs symmetric CMP on kmeans (Eq 5's structure)."""
    report = ExperimentReport(
        "ext-acmp-sim", "Simulated ACMP: serial sections on the large core"
    )
    rl = _ACMP_RL
    sym, acmp = (breakdown_from_payload(payloads[u.key]) for u in units)
    t = TextTable(
        title=f"kmeans at {_ACMP_THREADS} threads: symmetric vs ACMP (rl={rl})",
        columns=["machine", "total", "parallel", "reduction", "init+serial"],
    )
    for name, b in (("symmetric", sym), (f"ACMP rl={rl}", acmp)):
        t.add_row([name, b.total, b.parallel, b.reduction, b.init + b.serial])
    report.add_table(t)
    serial_speedup = sym.serial_sections / acmp.serial_sections
    report.add_comparison(PaperComparison(
        claim=f"the {rl}-BCE core speeds up serial sections, but far below "
              f"perf({rl}) — the merge is memory-bound and wires don't scale",
        paper_value=f"1 < factor << {rl ** 0.5:.0f}",
        measured_value=f"{serial_speedup:.2f}",
        qualitative=True,
        # compute accelerates by sqrt(rl); the coherence-miss-dominated
        # merge barely does — mechanically the reason the paper finds the
        # ACMP advantage "indeed quite limited" for reduction-heavy apps
        claim_holds=1.02 < serial_speedup < rl ** 0.5 / 2,
    ))
    merge_speedup = sym.reduction / acmp.reduction
    report.add_comparison(PaperComparison(
        claim="the merge accelerates least of all serial parts (coherence "
              "misses dominate it)",
        paper_value="(memory-bound)",
        measured_value=f"merge {merge_speedup:.2f}x vs "
                       f"const {(sym.init + sym.serial) / (acmp.init + acmp.serial):.2f}x",
        qualitative=True,
        claim_holds=merge_speedup < rl ** 0.5 / 2,
    ))
    report.add_comparison(PaperComparison(
        claim="ACMP improves total time (serial sections off the critical path)",
        paper_value="Eq 5 > Eq 4 at low overhead scale",
        measured_value=f"{sym.total / acmp.total:.3f}x",
        qualitative=True, claim_holds=acmp.total < sym.total,
    ))
    report.raw.update(symmetric=sym, acmp=acmp)
    return report


SPECS = (
    ExperimentSpec("ext-critical", run_critical),
    ExperimentSpec("ext-energy", run_energy),
    ExperimentSpec("ext-scaled", run_scaled),
    ExperimentSpec("ext-contention", run_contention),
    ExperimentSpec("ext-acmp-sim", run_acmp_sim, declare_units_acmp),
    ExperimentSpec("ext-crossover-sim", run_crossover_sim, declare_units_crossover),
)
