"""The paper's three conclusions, verified across the whole design space.

Section VII states:

(a) Amdahl's Law can overestimate the scalability offered by symmetric and
    asymmetric architectures for applications with merging phases;
(b) there is a shift towards using the chip area for fewer and hence more
    capable cores rather than simply increasing the number of cores;
(c) the performance potential of asymmetric over symmetric CMPs is limited
    for such applications.

Each conclusion is checked not at a single point but across a dense grid
over (f, fcon_share, fored_share), so the report quantifies *how robust*
the conclusions are, not merely that one configuration exhibits them.
"""

from __future__ import annotations

import numpy as np

from repro.core import gridkernels
from repro.core.params import AppParams
from repro.experiments.report import ExperimentReport, PaperComparison
from repro.pipeline import ExperimentSpec
from repro.util.tables import TextTable

__all__ = ["run", "evaluate_grid", "SPEC"]


def _grid():
    for f in (0.999, 0.99, 0.95):
        for con in (0.9, 0.75, 0.6, 0.45):
            for ored in (0.1, 0.3, 0.5, 0.8):
                yield AppParams(f=f, fcon_share=con, fored_share=ored)


def evaluate_grid(f: list, fcon_share: list, fored_share: list, n: int) -> dict:
    """All grid points' conclusion metrics in one vectorized call.

    Takes parallel per-point parameter lists and returns, for each metric
    of :func:`repro.core.gridkernels.conclusions_grid`, a parallel array.
    """
    return gridkernels.conclusions_grid(
        np.asarray(f, dtype=np.float64),
        np.asarray(fcon_share, dtype=np.float64),
        np.asarray(fored_share, dtype=np.float64),
        n,
    )


def run(n: int = 256) -> ExperimentReport:
    """Sweep the conclusions over a 48-point parameter grid."""
    report = ExperimentReport(
        "conclusions", "The paper's three conclusions across the design space"
    )
    overestimates = 0
    shift_violations = []
    advantage_ratios = []
    rows = []
    points = list(_grid())
    grid = evaluate_grid([p.f for p in points],
                         [p.fcon_share for p in points],
                         [p.fored_share for p in points], n)
    for i, p in enumerate(points):
        m = {k: grid[k][i] for k in grid}
        if m["hm_speedup"] > m["ours_speedup"] + 1e-9:
            overestimates += 1
        if m["ours_r"] < m["hm_r"]:
            shift_violations.append(p)
        advantage_ratios.append(
            (p.fored_share, m["acmp_ratio"], m["amdahl_ratio"])
        )
        rows.append((p, m))

    # (a) Amdahl overestimates everywhere on the grid
    report.add_comparison(PaperComparison(
        claim="(a) Amdahl overestimates speedup for merging-phase apps",
        paper_value="always",
        measured_value=f"{overestimates}/{len(points)} grid points",
        qualitative=True, claim_holds=overestimates == len(points),
    ))
    # (b) the optimum never uses smaller cores than Hill–Marty's
    report.add_comparison(PaperComparison(
        claim="(b) merging shifts optima to fewer, more capable cores",
        paper_value="optimal r >= Hill-Marty's r",
        measured_value=f"{len(points) - len(shift_violations)}/{len(points)} grid points",
        qualitative=True, claim_holds=not shift_violations,
    ))
    # (c) the ACMP advantage shrinks as overhead grows, and sits far below
    # the constant-serial prediction at high overhead
    by_overhead: dict[float, list[float]] = {}
    amdahl_by_overhead: dict[float, list[float]] = {}
    for ored, ratio, amdahl_ratio in advantage_ratios:
        by_overhead.setdefault(ored, []).append(ratio)
        amdahl_by_overhead.setdefault(ored, []).append(amdahl_ratio)
    means = {o: float(np.mean(v)) for o, v in sorted(by_overhead.items())}
    amdahl_means = {o: float(np.mean(v)) for o, v in sorted(amdahl_by_overhead.items())}
    monotone_down = all(
        means[a] >= means[b] - 1e-9
        for a, b in zip(sorted(means), sorted(means)[1:])
    )
    report.add_comparison(PaperComparison(
        claim="(c) mean ACMP advantage decreases with reduction overhead",
        paper_value="monotone down",
        measured_value=" -> ".join(f"{means[o]:.2f}" for o in sorted(means)),
        qualitative=True, claim_holds=monotone_down,
    ))
    report.add_comparison(PaperComparison(
        claim="(c) at high overhead the ACMP advantage is far below Amdahl's promise",
        paper_value="e.g. 1.2x vs 2.0x at fored=80%",
        measured_value=(
            f"{means[0.8]:.2f}x vs Amdahl {amdahl_means[0.8]:.2f}x"
        ),
        qualitative=True,
        claim_holds=means[0.8] < 0.75 * amdahl_means[0.8],
    ))

    t = TextTable(
        title="conclusion metrics by overhead share (grid means)",
        columns=["fored", "mean ACMP advantage (ours)", "mean ACMP advantage (Amdahl)"],
    )
    for o in sorted(means):
        t.add_row([f"{o:.0%}", round(means[o], 3), round(amdahl_means[o], 3)])
    report.add_table(t)
    report.raw.update(rows=rows, means=means, amdahl_means=amdahl_means)
    return report


SPEC = ExperimentSpec("conclusions", run)
