"""Design-space exploration over CMP/ACMP configurations.

The paper reads optima off its sweep plots; this module makes that a
first-class operation: find the best symmetric and asymmetric designs for an
application, compare architectures, and map how the optimum moves across the
(f, fcon, fored) parameter cube — the quantitative backbone of the paper's
three conclusions (Section VII).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core import communication as comm_mod
from repro.core import gridkernels, merging
from repro.core.growth import GrowthFunction, resolve_growth
from repro.core.params import AppParams
from repro.core.perf import PerfLaw, resolve_perf_law
from repro.util.validation import check_fraction

__all__ = [
    "DesignComparison",
    "compare_architectures",
    "acmp_advantage",
    "optimal_r_map",
    "optimal_design_grid",
    "pareto_front",
]


@dataclass(frozen=True)
class DesignComparison:
    """Best symmetric vs best asymmetric design for one application."""

    params: AppParams
    symmetric: merging.SymmetricDesign
    asymmetric: merging.AsymmetricDesign
    amdahl_symmetric: float
    amdahl_asymmetric: float

    @property
    def acmp_speedup_ratio(self) -> float:
        """Asymmetric-over-symmetric speedup ratio under the extended model."""
        return self.asymmetric.speedup / self.symmetric.speedup

    @property
    def amdahl_speedup_ratio(self) -> float:
        """The same ratio under constant-serial-section Amdahl (Eqs 2–3)."""
        return self.amdahl_asymmetric / self.amdahl_symmetric


def compare_architectures(
    params: AppParams,
    n: int = 256,
    r_choices: Sequence[float] = (1.0, 4.0, 16.0),
    growth: "str | GrowthFunction | None" = None,
    perf: "str | PerfLaw | None" = None,
) -> DesignComparison:
    """Find the best symmetric and asymmetric designs under the extended
    model and under plain Hill–Marty, for side-by-side reporting.

    This is the computation behind the paper's headline comparisons, e.g.
    "ACMPs yield 22.6 vs 36.2 for symmetric, contrary to Amdahl's 162.3 vs
    79.7" (Section V.D.2).
    """
    sym = merging.best_symmetric(params, n, growth, perf)
    asym = merging.best_asymmetric(params, n, tuple(r_choices), growth, perf)
    law = resolve_perf_law(perf)
    _, hm_sym = gridkernels.hm_best_symmetric_grid(params.f, n, law)
    # Amdahl's asymmetric reference uses the same grouped form as Eq 5 but
    # with a constant serial section; maximise over the same (rl, r) grid.
    hm_asym = gridkernels.hm_best_asymmetric_grouped_grid(
        params.f, n, tuple(r_choices), law
    )
    return DesignComparison(
        params=params,
        symmetric=sym,
        asymmetric=asym,
        amdahl_symmetric=float(hm_sym),
        amdahl_asymmetric=float(hm_asym),
    )


def acmp_advantage(
    params: AppParams,
    n: int = 256,
    growth: "str | GrowthFunction | None" = None,
    perf: "str | PerfLaw | None" = None,
) -> float:
    """The asymmetric-over-symmetric best-design speedup ratio.

    Values near (or below) 1 are the paper's conclusion (c): reduction
    overhead erases the ACMP advantage.
    """
    return compare_architectures(params, n, growth=growth, perf=perf).acmp_speedup_ratio


def optimal_r_map(
    f: float,
    n: int,
    fcon_shares: Iterable[float],
    fored_shares: Iterable[float],
    growth: "str | GrowthFunction | None" = None,
    perf: "str | PerfLaw | None" = None,
) -> np.ndarray:
    """Matrix of optimal symmetric core sizes over a (fcon, fored) grid.

    Rows follow ``fcon_shares``, columns follow ``fored_shares``.  The
    paper's conclusion (b) — "a shift towards fewer and more capable cores" —
    appears as the optimal r growing along the fored axis.
    """
    check_fraction(f, "f", inclusive=False)
    cons = np.array([check_fraction(c, "fcon_share") for c in fcon_shares], dtype=np.float64)
    ores = np.array([check_fraction(o, "fored_share") for o in fored_shares], dtype=np.float64)
    r, _ = gridkernels.best_symmetric_grid(
        f, cons[:, None], ores[None, :], n, resolve_growth(growth), resolve_perf_law(perf)
    )
    return r


@dataclass(frozen=True)
class GridPoint:
    """One evaluated design point of :func:`optimal_design_grid`."""

    architecture: str  # "sym" | "asym"
    r: float
    rl: float  # 0 for symmetric designs
    speedup: float
    cores: float


def optimal_design_grid(
    params: AppParams,
    n: int = 256,
    r_choices: Sequence[float] = (1.0, 2.0, 4.0, 8.0, 16.0),
    growth: "str | GrowthFunction | None" = None,
    perf: "str | PerfLaw | None" = None,
    include_comm: bool = False,
) -> list[GridPoint]:
    """Enumerate every design point on the paper's grids, sorted by speedup
    (best first).  With ``include_comm`` the communication-aware model
    (Eqs 6–7, parallel reduction on a mesh) is used instead of Eqs 4–5.
    """
    g = resolve_growth(growth)
    law = resolve_perf_law(perf)
    points: list[GridPoint] = []
    sizes = merging.power_of_two_sizes(n)
    if include_comm:
        sym_speedups = np.asarray(
            comm_mod.speedup_symmetric_comm(params, n, sizes, perf=law)
        )
    else:
        sym_speedups = np.asarray(merging.speedup_symmetric(params, n, sizes, g, law))
    for r, sp in zip(sizes, sym_speedups):
        points.append(GridPoint("sym", float(r), 0.0, float(sp), n / float(r)))
    for r in r_choices:
        rl_grid = sizes[sizes >= r]
        if include_comm:
            sp_arr = np.asarray(
                comm_mod.speedup_asymmetric_comm(params, n, rl_grid, float(r), perf=law)
            )
        else:
            sp_arr = np.asarray(
                merging.speedup_asymmetric(params, n, rl_grid, float(r), g, law)
            )
        for rl, sp in zip(rl_grid, sp_arr):
            cores = (n - float(rl)) / float(r) + 1.0
            points.append(GridPoint("asym", float(r), float(rl), float(sp), cores))
    points.sort(key=lambda pt: pt.speedup, reverse=True)
    return points


def pareto_front(points: Sequence[GridPoint]) -> list[GridPoint]:
    """The speedup-vs-core-count Pareto front of a design grid.

    A point is kept if no other point has both more cores and higher
    speedup — the trade-off the paper describes between "accommodating fewer
    but larger cores" and "applications that have potential for effectively
    using large number of cores" (Section V.D.1).
    """
    front: list[GridPoint] = []
    for p in sorted(points, key=lambda q: (-q.cores, -q.speedup)):
        if not front or p.speedup > front[-1].speedup:
            front.append(p)
    return front
