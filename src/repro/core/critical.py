"""Critical sections combined with merging phases (the paper's future work).

Section VI positions this work as orthogonal to Eyerman & Eeckhout's
critical-section extension of Amdahl's Law [ISCA 2010] and notes the two
"can [be] combined ... to improve accuracy of scalability prediction".
This module provides that combination.

Model.  Of the parallel fraction ``f``, a sub-fraction ``fcs`` executes
inside critical sections guarding shared state.  Two serialization models
are offered:

* ``"bottleneck"`` — the lock is a unit-throughput server: the parallel
  phase cannot finish faster than the total critical-section demand,
  so its duration is ``max(parallel_work / throughput, fcs_work)``.
  This is the asymptotic (worst-case contention) behaviour.
* ``"probabilistic"`` — a thread entering a critical section finds it
  busy with probability ``1 − (1 − fcs/f)^(p−1)`` (some other thread is
  inside); the contended share serializes, the rest parallelises.  This
  tracks the low-contention regime.

Both reduce exactly to the merging-phase model (Eq 4/5) when ``fcs = 0``,
and both inherit the growing reduction cost, so the combined model captures
*two* scalability limiters at once: lock serialization (flat in p) and
merge growth (increasing in p).

Critical sections execute on whichever core holds the lock; on a symmetric
CMP that is a ``perf(r)`` core, on an asymmetric CMP we follow [Suleman
et al., ASPLOS 2009] (ACS) and allow migrating contended critical sections
to the large core via ``accelerate_critical=True``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.growth import GrowthFunction, resolve_growth
from repro.core.params import AppParams
from repro.core.perf import PerfLaw, resolve_perf_law
from repro.util.validation import check_fraction, check_positive_int

__all__ = [
    "CriticalParams",
    "speedup_symmetric_cs",
    "speedup_asymmetric_cs",
    "best_symmetric_cs",
]

_MODES = ("bottleneck", "probabilistic")


@dataclass(frozen=True)
class CriticalParams:
    """An application with both a merging phase and critical sections.

    Parameters
    ----------
    base:
        The Fig 1 decomposition (f, fcon, fored shares).
    fcs_share:
        Fraction of the *parallel* work executed inside critical sections
        (Table II's critical-section column is ≤ 0.004% for the clustering
        apps — effectively zero — but e.g. database or graph workloads sit
        in the percent range).
    """

    base: AppParams
    fcs_share: float

    def __post_init__(self) -> None:
        check_fraction(self.fcs_share, "fcs_share")

    @property
    def fcs(self) -> float:
        """Critical-section work as a fraction of total single-core time."""
        return self.base.f * self.fcs_share


def _contention(params: CriticalParams, n_threads: np.ndarray, mode: str) -> np.ndarray:
    """Fraction of critical-section work that serializes."""
    if mode == "bottleneck":
        return np.ones_like(n_threads)
    # probabilistic: another thread holds the lock with probability
    # 1 − (1 − cs-density)^(p−1)
    density = params.fcs_share
    return 1.0 - np.power(1.0 - density, np.maximum(n_threads - 1.0, 0.0))


def speedup_symmetric_cs(
    params: CriticalParams,
    n: int,
    r: "float | np.ndarray",
    growth: "str | GrowthFunction | None" = None,
    perf: "str | PerfLaw | None" = None,
    mode: str = "bottleneck",
) -> "float | np.ndarray":
    """Eq 4 extended with critical-section serialization.

    The parallel-phase duration is the larger of the throughput bound
    (all parallel work over aggregate throughput) and the serialization
    bound (contended critical-section work at single-core speed perf(r)).
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    n = check_positive_int(n, "n")
    law = resolve_perf_law(perf)
    g = resolve_growth(growth)
    arr = np.asarray(r, dtype=np.float64)
    if np.any(arr <= 0) or np.any(arr > n):
        raise ValueError(f"core size r must be in (0, n], got {r!r}")
    pr = np.asarray(law(arr), dtype=np.float64)
    nc = n / arr
    base = params.base
    serial = (base.fcon + base.fcred + base.fored * np.asarray(g(nc))) / pr
    throughput_bound = base.f * arr / (pr * n)
    contended = params.fcs * _contention(params, nc, mode)
    parallel_time = np.maximum(throughput_bound, contended / pr)
    out = 1.0 / (serial + parallel_time)
    return float(out) if np.asarray(r).ndim == 0 else out


def speedup_asymmetric_cs(
    params: CriticalParams,
    n: int,
    rl: "float | np.ndarray",
    r: float = 1.0,
    growth: "str | GrowthFunction | None" = None,
    perf: "str | PerfLaw | None" = None,
    mode: str = "bottleneck",
    accelerate_critical: bool = True,
) -> "float | np.ndarray":
    """Eq 5 extended with critical sections.

    With ``accelerate_critical`` (the ACS idea) contended critical sections
    migrate to the large core and run at ``perf(rl)``; otherwise they run
    on the small cores at ``perf(r)``.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    n = check_positive_int(n, "n")
    law = resolve_perf_law(perf)
    g = resolve_growth(growth)
    arr = np.asarray(rl, dtype=np.float64)
    if np.any(arr <= 0) or np.any(arr > n):
        raise ValueError(f"large-core size rl must be in (0, n], got {rl!r}")
    if r <= 0 or r > n or np.any(arr < r):
        raise ValueError(f"small-core size r must be in (0, min(rl, n)], got {r}")
    prl = np.asarray(law(arr), dtype=np.float64)
    pr = float(law(r))
    n_small = (n - arr) / r
    nc = n_small + 1.0
    base = params.base
    serial = (base.fcon + base.fcred + base.fored * np.asarray(g(nc))) / prl
    throughput_bound = base.f / (pr * n_small + prl)
    cs_speed = prl if accelerate_critical else pr
    contended = params.fcs * _contention(params, nc, mode)
    parallel_time = np.maximum(throughput_bound, contended / cs_speed)
    out = 1.0 / (serial + parallel_time)
    return float(out) if np.asarray(rl).ndim == 0 else out


def best_symmetric_cs(
    params: CriticalParams,
    n: int,
    growth: "str | GrowthFunction | None" = None,
    perf: "str | PerfLaw | None" = None,
    mode: str = "bottleneck",
) -> tuple[float, float]:
    """(r*, speedup*) over the power-of-two grid for the combined model."""
    from repro.core.merging import power_of_two_sizes

    sizes = power_of_two_sizes(n)
    sp = np.asarray(speedup_symmetric_cs(params, n, sizes, growth, perf, mode))
    i = int(np.argmax(sp))
    return float(sizes[i]), float(sp[i])
