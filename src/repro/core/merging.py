"""The paper's extended speedup model (Eqs 4 and 5): merging-phase overhead.

The serial fraction is decomposed (Fig 1) into a constant part ``fcon``, a
constant reduction part ``fcred``, and a growing reduction part ``fored``
whose cost is multiplied by a growth function of the participating core
count.  Substituting this for the constant ``s`` of Hill–Marty gives:

* **Symmetric CMP** (Eq 4), ``nc = n / r`` cores::

      speedup = 1 / [ (fcon + fcred + fored·grow(nc)) / perf(r)
                      + f·r / (perf(r)·n) ]

* **Asymmetric CMP** (Eq 5) — one ``rl``-BCE large core runs the serial
  section *and* the reduction (linear complexity on the large core), the
  parallel section runs on all cores; ``nc = (n - rl)/r + 1`` cores
  participate in the reduction (the large core collects one partial per
  core, including its own)::

      speedup = 1 / [ (fcon + fcred + fored·grow(nc)) / perf(rl)
                      + f / (perf(r)·(n - rl)/r + perf(rl)) ]

Conventions validated against the paper's reported peaks (DESIGN.md §1):
with ``n = 256``, ``perf = sqrt`` and Table III parameters these expressions
reproduce 104.5 / 67.1 / 36.2 / 47.6 / 64.2 / 43.3 / 22.6 to the paper's
reported precision.

The functions here validate their input and evaluate the
:mod:`repro.core.gridkernels` kernels and reducers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import gridkernels
from repro.core.gridkernels import power_of_two_sizes
from repro.core.growth import GrowthFunction, resolve_growth
from repro.core.params import AppParams
from repro.core.perf import PerfLaw, resolve_perf_law
from repro.util.validation import check_positive_int

__all__ = [
    "speedup_symmetric",
    "speedup_asymmetric",
    "sweep_asymmetric",
    "SymmetricDesign",
    "AsymmetricDesign",
    "best_symmetric",
    "best_asymmetric",
    "power_of_two_sizes",
]


def _as_positive_array(value: "float | np.ndarray", name: str, upper: float) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if np.any(arr <= 0):
        raise ValueError(f"{name} must be > 0, got {value!r}")
    if np.any(arr > upper):
        raise ValueError(f"{name} must be <= {upper}, got {value!r}")
    return arr


def _check_small_core(r: float, n: int) -> None:
    if r <= 0 or r > n:
        raise ValueError(f"small-core size r must be in (0, n], got {r}")


def speedup_symmetric(
    params: AppParams,
    n: int,
    r: "float | np.ndarray",
    growth: "str | GrowthFunction | None" = None,
    perf: "str | PerfLaw | None" = None,
) -> "float | np.ndarray":
    """Extended symmetric-CMP speedup (Eq 4).

    Parameters
    ----------
    params:
        Application parameters (design-space form).
    n:
        Chip budget in BCEs (paper: 256).
    r:
        BCEs per core; scalar or array.
    growth:
        Reduction growth function (default: linear, the paper's baseline).
    perf:
        Core performance law (default: sqrt).
    """
    n = check_positive_int(n, "n")
    law = resolve_perf_law(perf)
    g = resolve_growth(growth)
    arr = _as_positive_array(r, "r", n)
    out = gridkernels.merging_symmetric(
        params.f, params.fcon_share, params.fored_share, n, arr, g, law
    )
    return float(out) if np.asarray(r).ndim == 0 else out


def speedup_asymmetric(
    params: AppParams,
    n: int,
    rl: "float | np.ndarray",
    r: float = 1.0,
    growth: "str | GrowthFunction | None" = None,
    perf: "str | PerfLaw | None" = None,
) -> "float | np.ndarray":
    """Extended asymmetric-CMP speedup (Eq 5).

    Parameters
    ----------
    params:
        Application parameters (design-space form).
    n:
        Chip budget in BCEs.
    rl:
        Large-core size in BCEs; scalar or array.  Must satisfy
        ``r <= rl <= n``.
    r:
        Small-core size in BCEs (the paper plots r in {1, 4, 16}).
    growth:
        Reduction growth function applied to ``nc = (n - rl)/r + 1``.
    perf:
        Core performance law.
    """
    n = check_positive_int(n, "n")
    law = resolve_perf_law(perf)
    g = resolve_growth(growth)
    arr = _as_positive_array(rl, "rl", n)
    _check_small_core(r, n)
    if np.any(arr < r):
        raise ValueError(f"large core rl must be at least as big as small cores r={r}")
    out = gridkernels.merging_asymmetric(
        params.f, params.fcon_share, params.fored_share, n, arr, r, g, law
    )
    return float(out) if np.asarray(rl).ndim == 0 else out


@dataclass(frozen=True)
class SymmetricDesign:
    """An optimal symmetric design point: ``nc = n/r`` cores of ``r`` BCEs."""

    r: float
    speedup: float
    n: int

    @property
    def cores(self) -> float:
        """Number of cores on the chip."""
        return self.n / self.r


@dataclass(frozen=True)
class AsymmetricDesign:
    """An optimal asymmetric design point: one ``rl``-BCE core plus
    ``(n - rl)/r`` small cores of ``r`` BCEs."""

    rl: float
    r: float
    speedup: float
    n: int

    @property
    def small_cores(self) -> float:
        """Number of small cores on the chip."""
        return (self.n - self.rl) / self.r

    @property
    def cores(self) -> float:
        """Total core count including the large core."""
        return self.small_cores + 1.0


def sweep_asymmetric(
    params: AppParams,
    n: int,
    r: float = 1.0,
    growth: "str | GrowthFunction | None" = None,
    perf: "str | PerfLaw | None" = None,
    sizes: "np.ndarray | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Speedup across the power-of-two large-core grid (a Fig 5 curve).

    Only grid points with ``rl >= r`` are evaluated.  Returns
    ``(sizes, speedups)``.
    """
    grid = power_of_two_sizes(n) if sizes is None else np.asarray(sizes, dtype=np.float64)
    grid = grid[grid >= r]
    return grid, np.asarray(speedup_asymmetric(params, n, grid, r, growth, perf))


def best_symmetric(
    params: AppParams,
    n: int,
    growth: "str | GrowthFunction | None" = None,
    perf: "str | PerfLaw | None" = None,
) -> SymmetricDesign:
    """The speedup-maximising symmetric design over the power-of-two grid."""
    r, sp = gridkernels.best_symmetric_grid(
        params.f, params.fcon_share, params.fored_share, n,
        resolve_growth(growth), resolve_perf_law(perf),
    )
    return SymmetricDesign(r=float(r), speedup=float(sp), n=n)


def best_asymmetric(
    params: AppParams,
    n: int,
    r_choices: "tuple[float, ...]" = (1.0, 4.0, 16.0),
    growth: "str | GrowthFunction | None" = None,
    perf: "str | PerfLaw | None" = None,
) -> AsymmetricDesign:
    """The speedup-maximising asymmetric design over the power-of-two
    ``rl`` grid and the given small-core choices (paper: r in {1, 4, 16})."""
    for r in r_choices:
        _check_small_core(r, check_positive_int(n, "n"))
    rl, r, sp = gridkernels.best_asymmetric_grid(
        params.f, params.fcon_share, params.fored_share, n, tuple(r_choices),
        resolve_growth(growth), resolve_perf_law(perf),
    )
    return AsymmetricDesign(rl=float(rl), r=float(r), speedup=float(sp), n=n)
