"""Workload-mix design study (extension).

Chips serve portfolios.  This experiment takes the paper's Table II
applications (converted to design-space form) plus a merge-heavy histogram
profile, sweeps mix weights, and reports how the mix-optimal core size
moves — the multi-application version of conclusion (b).
"""

from __future__ import annotations

from repro.core import merging
from repro.core.mix import WorkloadMix, best_symmetric_for_mix, mix_speedup
from repro.core.params import TABLE2, AppParams
from repro.experiments.report import ExperimentReport, PaperComparison
from repro.util.tables import TextTable
from repro.pipeline import ExperimentSpec

__all__ = ["run", "SPEC"]


def _portfolio() -> dict[str, AppParams]:
    apps = {name: mp.to_design_params() for name, mp in TABLE2.items()}
    apps["merge-heavy"] = AppParams(
        f=0.95, fcon_share=0.40, fored_share=0.90, name="merge-heavy"
    )
    return apps


def run(n: int = 256) -> ExperimentReport:
    """Sweep the portfolio's mix weights."""
    report = ExperimentReport("ext-mix", "Designing for workload mixes")
    apps = _portfolio()
    t = TextTable(
        title="per-application optima (the corner cases the mix must bridge)",
        columns=["application", "optimal r", "speedup"],
    )
    per_app = {}
    for name, p in apps.items():
        best = merging.best_symmetric(p, n)
        per_app[name] = best
        t.add_row([name, best.r, round(best.speedup, 1)])
    report.add_table(t)

    clustering = [apps["kmeans"], apps["fuzzy"], apps["hop"]]
    heavy = apps["merge-heavy"]
    t2 = TextTable(
        title="mix optimum vs merge-heavy share (rest: clustering portfolio)",
        columns=["merge-heavy weight", "optimal r", "mix speedup"],
    )
    rs = []
    for share in (0.0, 0.25, 0.5, 0.75, 1.0):
        if share == 0.0:
            m = WorkloadMix.uniform(clustering)
        elif share == 1.0:
            m = WorkloadMix.uniform([heavy])
        else:
            m = WorkloadMix(
                apps=(*clustering, heavy),
                weights=(*(((1 - share) / 3,) * 3), share),
            )
        best = best_symmetric_for_mix(m, n)
        rs.append(best.r)
        t2.add_row([f"{share:.0%}", best.r, round(best.speedup, 1)])
    report.add_table(t2)

    report.add_comparison(PaperComparison(
        claim="a heavier merge share in the mix forces larger cores",
        paper_value="monotone (conclusion (b), portfolio form)",
        measured_value=" -> ".join(f"{r:.0f}" for r in rs),
        qualitative=True,
        claim_holds=all(a <= b + 1e-9 for a, b in zip(rs, rs[1:])),
    ))
    pure_mix = WorkloadMix.uniform(list(apps.values()))
    best_mix = best_symmetric_for_mix(pure_mix, n)
    dominated = all(
        best_mix.speedup >= float(mix_speedup(pure_mix, n, per_app[a].r)) - 1e-9
        for a in apps
    )
    report.add_comparison(PaperComparison(
        claim="the compromise design beats every single-app design on the mix",
        paper_value="(dominance)",
        measured_value=f"r={best_mix.r:.0f}, {best_mix.speedup:.1f}x",
        qualitative=True, claim_holds=dominated,
    ))
    report.raw.update(per_app=per_app, mix_best=best_mix, rs=rs)
    return report


SPEC = ExperimentSpec("ext-mix", run)
