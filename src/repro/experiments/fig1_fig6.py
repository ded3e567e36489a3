"""Figs 1 and 6 — the serial-fraction decomposition diagrams.

These paper figures are illustrative (no measured data): Fig 1 splits the
serial fraction into fcon / fred = fcred + fored; Fig 6 further splits the
reduction into computation and communication halves (Section V.E).  The
drivers render the decomposition *with concrete numbers* for one example
parameter set, so the diagrams double as a numeric cross-check that the
shares sum correctly.
"""

from __future__ import annotations

from repro.core.params import AppParams
from repro.experiments.report import ExperimentReport, PaperComparison
from repro.util.tables import TextTable
from repro.pipeline import ExperimentSpec

__all__ = ["run_fig1", "run_fig6", "SPECS"]


#: the example application both diagrams decompose
_PARAMS = AppParams(f=0.99, fcon_share=0.60, fored_share=0.80, name="example")


def run_fig1() -> ExperimentReport:
    """Fig 1: serial-section split-up, with concrete values."""
    p = _PARAMS
    report = ExperimentReport("fig1", "Serial section split-up (Fig 1)")
    tree = "\n".join([
        f"execution time (1.0)",
        f"├── parallel fraction f           = {p.f:.6f}",
        f"└── serial fraction s             = {p.serial:.6f}",
        f"    ├── constant serial fcon      = {p.fcon:.6f}  ({p.fcon_share:.0%} of s)",
        f"    └── reduction fred            = {p.fred:.6f}  ({1 - p.fcon_share:.0%} of s)",
        f"        ├── constant fcred        = {p.fcred:.6f}",
        f"        └── growing fored         = {p.fored:.6f}  (x grow(nc) at scale)",
    ])
    t = TextTable(title=tree, columns=["component", "fraction"])
    for name, val in (
        ("f", p.f), ("s", p.serial), ("fcon", p.fcon),
        ("fred", p.fred), ("fcred", p.fcred), ("fored", p.fored),
    ):
        t.add_row([name, val])
    report.add_table(t)
    report.add_comparison(PaperComparison(
        claim="decomposition sums: f + fcon + fcred + fored = 1",
        paper_value=1.0,
        measured_value=p.f + p.fcon + p.fcred + p.fored,
        tolerance=1e-12,
    ))
    report.raw["params"] = p
    return report


def run_fig6() -> ExperimentReport:
    """Fig 6: reduction-fraction split-up into computation/communication."""
    p = _PARAMS
    report = ExperimentReport(
        "fig6", "Reduction fraction split-up (Fig 6, Section V.E)"
    )
    tree = "\n".join([
        f"reduction fraction fred           = {p.fred:.6f}",
        f"├── computation fcomp             = {p.fcomp:.6f}  (x (1 + growcomp(nc))/perf)",
        f"└── communication fcomm           = {p.fcomm:.6f}  (x (1 + growcomm(nc)))",
    ])
    t = TextTable(title=tree, columns=["component", "fraction"])
    for name, val in (("fred", p.fred), ("fcomp", p.fcomp), ("fcomm", p.fcomm)):
        t.add_row([name, val])
    report.add_table(t)
    report.add_comparison(PaperComparison(
        claim="ideal premise: fcomp == fcomm and fcomp + fcomm == fred",
        paper_value="equal halves",
        measured_value=f"{p.fcomp:.6f} / {p.fcomm:.6f}",
        qualitative=True,
        claim_holds=abs(p.fcomp - p.fcomm) < 1e-15
        and abs(p.fcomp + p.fcomm - p.fred) < 1e-15,
    ))
    report.raw["params"] = p
    return report


SPECS = (
    ExperimentSpec("fig1", run_fig1),
    ExperimentSpec("fig6", run_fig6),
)
