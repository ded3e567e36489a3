"""Table II — measured application parameters.

Sweeps kmeans, fuzzy and hop across core counts on the simulator, extracts
(f, fcon, fred, fored) with the paper's methodology, and prints them next
to the paper's values.  Absolute serial percentages depend on the dataset
scale (our default sweep uses scaled-down data; see
:func:`repro.workloads.default_workloads`); the comparisons assert the
*structure*: serial fractions are tiny, the reduction share is substantial, and the
overhead slope is positive (superlinear for hop).
"""

from __future__ import annotations

from repro.core.params import TABLE2
from repro.experiments.report import ExperimentReport, PaperComparison
from repro.pipeline import ExperimentSpec, Stage, sim_sweep_units, simulate_breakdowns
from repro.util.tables import TextTable
from repro.workloads import default_workloads
from repro.workloads.instrument import extract_parameters

__all__ = ["run", "declare_units", "SPEC"]


def declare_units(
    scale: float = 0.15,
    thread_counts: tuple = (1, 2, 4, 8, 16),
    mem_scale: int = 2,
) -> list:
    """Table II's simulator sweep as engine work units (mirrors
    :func:`run`'s defaults so the keys match what the driver will ask for)."""
    units = []
    for workload in default_workloads(scale).values():
        units.extend(sim_sweep_units(workload, thread_counts, mem_scale=mem_scale))
    return units


def run(
    scale: float = 0.15,
    thread_counts: tuple = (1, 2, 4, 8, 16),
    mem_scale: int = 2,
) -> ExperimentReport:
    """Regenerate Table II from simulator measurements."""
    report = ExperimentReport("table2", "Application parameters (simulated)")
    table = TextTable(
        title="Table II — application parameters",
        columns=[
            "application", "serial (%)", "fored (%)", "fred (%)", "fcon (%)", "f",
            "growth alpha",
        ],
    )
    extracted = {}
    for name, workload in default_workloads(scale).items():
        breakdowns = simulate_breakdowns(workload, thread_counts, mem_scale=mem_scale)
        ep = extract_parameters(breakdowns, name)
        extracted[name] = ep
        table.add_row([
            name,
            round(ep.serial_pct, 4),
            round(100 * ep.fored_rel, 1),
            round(100 * ep.fred_share, 1),
            round(100 * ep.fcon_share, 1),
            round(1 - ep.serial_pct / 100, 5),
            round(ep.growth_alpha, 2),
        ])
    report.add_table(table)

    paper = TextTable(
        title="Table II — paper's values (default MineBench datasets)",
        columns=["application", "serial (%)", "fored (%)", "fred (%)", "fcon (%)", "f"],
    )
    for name, mp in TABLE2.items():
        paper.add_row([
            name, mp.serial_pct, 100 * mp.fored_rel, 100 * mp.fred_share,
            100 * mp.fcon_share, mp.f,
        ])
    report.add_table(paper)

    # structural claims
    for name, ep in extracted.items():
        report.add_comparison(PaperComparison(
            claim=f"{name}: serial section is a small fraction (< 2%)",
            paper_value="< 0.1%", measured_value=f"{ep.serial_pct:.3f}%",
            qualitative=True, claim_holds=ep.serial_pct < 2.0,
        ))
        report.add_comparison(PaperComparison(
            claim=f"{name}: reduction overhead grows with cores (fored > 0)",
            paper_value=f"{100 * TABLE2[name].fored_rel:.0f}%",
            measured_value=f"{100 * ep.fored_rel:.0f}%",
            qualitative=True, claim_holds=ep.fored_rel > 0.05,
        ))
    report.add_comparison(PaperComparison(
        claim="kmeans fcon/fred split near 57/43",
        paper_value=57.0,
        measured_value=round(100 * extracted["kmeans"].fcon_share, 1),
        tolerance=0.25,
    ))
    report.add_comparison(PaperComparison(
        claim="hop reduction growth superlinear (alpha > 1)",
        paper_value="155% rel. growth",
        measured_value=f"alpha={extracted['hop'].growth_alpha:.2f}",
        qualitative=True, claim_holds=extracted["hop"].growth_alpha > 1.0,
    ))
    report.add_note(
        f"simulated at scale={scale} of the paper's dataset sizes; absolute "
        "serial percentages shift with scale, shares and slopes do not "
        "(cf. Table IV)."
    )
    report.raw["extracted"] = extracted
    return report


SPEC = ExperimentSpec("table2", run, stages=(Stage("sim-sweep", declare_units),))
