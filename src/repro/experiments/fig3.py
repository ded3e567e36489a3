"""Fig 3 — scalability prediction to 256 cores, Amdahl vs extended model.

Uses the paper's own Table II parameters (so this panel is exactly
reproducible) and, optionally, parameters extracted from our simulator.
Both models assume linear parallel scaling; they differ only in the serial
section's treatment.
"""

from __future__ import annotations

import numpy as np

from repro.core import measured as mm
from repro.core.params import TABLE2
from repro.experiments.report import ExperimentReport, PaperComparison, series_table
from repro.pipeline import ExperimentSpec

__all__ = ["run", "SPEC"]


def run() -> ExperimentReport:
    """Regenerate the three panels of Fig 3 (kmeans, fuzzy, hop)."""
    report = ExperimentReport(
        "fig3", "Scalability prediction with and without reduction overhead"
    )
    cores = np.array([1, 2, 4, 8, 16, 32, 64, 128, 256], dtype=np.float64)

    for name, params in TABLE2.items():
        amdahl = np.asarray(mm.speedup_amdahl(params, cores))
        extended = np.asarray(mm.speedup_extended(params, cores))
        report.add_table(series_table(
            f"Fig 3({'abc'[list(TABLE2).index(name)]}) — {name}",
            "cores", [int(c) for c in cores],
            {"Amdahl (constant serial)": amdahl, "Extended (reduction overhead)": extended},
        ))
        # the paper's qualitative claims per panel
        report.add_comparison(PaperComparison(
            claim=f"{name}: Amdahl predicts near-linear scaling to 256",
            paper_value="linear to >= 256",
            measured_value=f"{amdahl[-1]:.0f} at 256",
            qualitative=True,
            claim_holds=amdahl[-1] > 0.7 * cores[-1],
        ))
        peak_p, peak_sp = mm.peak_core_count(params, max_cores=4096)
        report.add_comparison(PaperComparison(
            claim=f"{name}: extended model tapers off at fewer cores",
            paper_value="peaks below Amdahl",
            measured_value=f"peak {peak_sp:.0f} at {peak_p} cores",
            qualitative=True,
            claim_holds=extended[-1] < amdahl[-1],
        ))
        report.raw[name] = {
            "cores": cores.tolist(),
            "amdahl": amdahl.tolist(),
            "extended": extended.tolist(),
            "peak": (peak_p, peak_sp),
        }

    report.add_note(
        "parameters from the paper's Table II; 'extended' grows the serial "
        "section as fcred·(1 + fored·(p−1)^alpha) with hop superlinear."
    )
    return report


SPEC = ExperimentSpec("fig3", run)
