"""Fig 5 — scalability on asymmetric CMPs (eight panels).

Each panel fixes a Table III class and sweeps the large-core area rl over
1..256 BCEs for small-core sizes r in {1, 4, 16} — the paper's Eq 5 with
the reduction running on the large core, linear growth.
"""

from __future__ import annotations

import numpy as np

from repro.core import gridkernels, merging
from repro.core.classes import TABLE3_CLASSES
from repro.experiments.report import ExperimentReport, PaperComparison, series_table
from repro.pipeline import ExperimentSpec

__all__ = ["run", "evaluate_curves", "PANEL_ORDER", "SPEC"]

#: panels (a)–(h) in the paper's order: (parallelism, constant, reduction)
PANEL_ORDER = (
    ("a", "emb", "high", "low"),
    ("b", "non-emb", "high", "low"),
    ("c", "emb", "high", "high"),
    ("d", "non-emb", "high", "high"),
    ("e", "emb", "moderate", "low"),
    ("f", "non-emb", "moderate", "low"),
    ("g", "emb", "moderate", "high"),
    ("h", "non-emb", "moderate", "high"),
)

_R_CHOICES = (1.0, 4.0, 16.0)


def evaluate_curves(n: int) -> dict:
    """All 24 Fig 5 curves in one vectorized grid evaluation per small-core
    choice (the eight panels broadcast against the rl axis)."""
    by_key = {(c.parallelism, c.constant, c.reduction): c for c in TABLE3_CLASSES}
    params = [by_key[(par, con, red)].params()
              for _, par, con, red in PANEL_ORDER]
    f = np.asarray([p.f for p in params])[:, None]
    con = np.asarray([p.fcon_share for p in params])[:, None]
    ored = np.asarray([p.fored_share for p in params])[:, None]
    grid = merging.power_of_two_sizes(n)
    out: dict = {}
    for r in _R_CHOICES:
        sizes = grid[grid >= r]
        sp = gridkernels.merging_asymmetric(f, con, ored, n, sizes, float(r))
        out[f"r={int(r)}"] = {
            "sizes": sizes,
            "panels": {panel: sp[i] for i, (panel, *_key) in enumerate(PANEL_ORDER)},
        }
    return out


def run(n: int = 256) -> ExperimentReport:
    """Regenerate all eight Fig 5 panels."""
    report = ExperimentReport("fig5", "Scalability on asymmetric CMPs")
    payload = evaluate_curves(n)
    curves: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    for panel, par, con, red in PANEL_ORDER:
        series = {}
        x_axis = None
        for r in _R_CHOICES:
            block = payload[f"r={int(r)}"]
            sizes = block["sizes"]
            sp = block["panels"][panel]
            curves[(panel, r)] = (sizes, sp)
            if x_axis is None or len(sizes) > len(x_axis):
                x_axis = sizes
        # pad shorter curves (rl >= r constraint) with NaN for the table
        for r in _R_CHOICES:
            sizes, sp = curves[(panel, r)]
            padded = np.full(len(x_axis), np.nan)
            padded[len(x_axis) - len(sizes):] = sp
            series[f"r={int(r)}"] = padded
        report.add_table(series_table(
            f"Fig 5({panel}) — {par}, {con} constant, {red} overhead",
            "rl (BCEs, large core)", [int(s) for s in x_axis], series,
        ))

    def peak(panel: str, r: float) -> float:
        return float(np.nanmax(curves[(panel, r)][1]))

    # text anchors from Section V.D.2
    report.add_comparison(PaperComparison(
        claim="5(d): ACMP peak 64.2 with r=4", paper_value=64.2,
        measured_value=peak("d", 4.0), tolerance=0.01,
    ))
    report.add_comparison(PaperComparison(
        claim="5(h): r=1 curve peaks at 22.6", paper_value=22.6,
        measured_value=peak("h", 1.0), tolerance=0.02,
    ))
    report.add_comparison(PaperComparison(
        claim="5(h): ACMP best 43.3 with r=4", paper_value=43.3,
        measured_value=peak("h", 4.0), tolerance=0.01,
    ))
    report.add_comparison(PaperComparison(
        claim="5(d): r=4 beats r=1 (capable small cores win at high overhead)",
        paper_value="r=4 > r=1",
        measured_value=f"{peak('d', 4.0):.1f} vs {peak('d', 1.0):.1f}",
        qualitative=True, claim_holds=peak("d", 4.0) > peak("d", 1.0),
    ))
    # low-overhead panels: r=1 wins (maximise core count)
    low_panels = [p for p, _, _, red in PANEL_ORDER if red == "low"]
    r1_wins = all(
        peak(p, 1.0) >= max(peak(p, 4.0), peak(p, 16.0)) for p in low_panels
    )
    report.add_comparison(PaperComparison(
        claim="low overhead: many small cores + one large core is optimal",
        paper_value="r=1 max in (a)(b)(e)(f)",
        measured_value=str(r1_wins), qualitative=True, claim_holds=r1_wins,
    ))
    report.raw["curves"] = curves
    return report


SPEC = ExperimentSpec("fig5", run)
