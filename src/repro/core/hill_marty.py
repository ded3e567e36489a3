"""Hill–Marty multicore speedup models (Eqs 2 and 3 of the paper).

Hill and Marty ["Amdahl's Law in the Multicore Era", IEEE Computer 2008]
recast Amdahl's Law for a chip with an area budget of ``n`` base-core
equivalents (BCEs):

* **Symmetric CMP** — ``n/r`` cores of ``r`` BCEs each (Eq 2)::

      speedup = 1 / [ (1-f)/perf(r) + f·r / (perf(r)·n) ]

* **Asymmetric CMP** — one large ``rl``-BCE core plus ``n - rl`` one-BCE
  cores; the serial section runs on the large core, the parallel section on
  everything (Eq 3)::

      speedup = 1 / [ (1-f)/perf(rl) + f / (perf(rl) + n - rl) ]

These are the *constant-serial-section* baselines that the paper's extended
model (:mod:`repro.core.merging`) corrects.  We additionally provide the
generalised asymmetric form used implicitly by the paper's Fig 5 Amdahl
curves (small cores of ``r`` BCEs rather than 1).

All speedup functions are vectorised over their core-size argument and
evaluate the :mod:`repro.core.gridkernels` kernels.
"""

from __future__ import annotations

import numpy as np

from repro.core import gridkernels
from repro.core.perf import PerfLaw, resolve_perf_law
from repro.util.validation import check_fraction, check_positive_int

__all__ = [
    "speedup_symmetric",
    "speedup_asymmetric",
    "best_symmetric",
]


def _as_r_array(r: "float | np.ndarray", name: str, n: int, label: str) -> np.ndarray:
    arr = np.asarray(r, dtype=np.float64)
    if np.any(arr <= 0):
        raise ValueError(f"{name} must be > 0, got {r!r}")
    if np.any(arr > n):
        raise ValueError(f"{label} must be <= n={n}")
    return arr


def _out(value: np.ndarray, r: "float | np.ndarray") -> "float | np.ndarray":
    return float(value) if np.asarray(r).ndim == 0 else value


def speedup_symmetric(
    f: float,
    n: int,
    r: "float | np.ndarray",
    perf: "str | PerfLaw | None" = None,
) -> "float | np.ndarray":
    """Hill–Marty symmetric-CMP speedup (Eq 2).

    Parameters
    ----------
    f:
        Parallel fraction.
    n:
        Chip budget in BCEs (paper: 256).
    r:
        BCEs per core; scalar or array.  Need not divide ``n`` exactly for
        the continuous model, but must not exceed ``n``.
    perf:
        Performance law (default: sqrt).
    """
    check_fraction(f, "f")
    n = check_positive_int(n, "n")
    law = resolve_perf_law(perf)
    arr = _as_r_array(r, "r", n, "core size r")
    return _out(gridkernels.hm_symmetric(f, n, arr, law), r)


def speedup_asymmetric(
    f: float,
    n: int,
    rl: "float | np.ndarray",
    perf: "str | PerfLaw | None" = None,
) -> "float | np.ndarray":
    """Hill–Marty asymmetric-CMP speedup (Eq 3): one ``rl``-BCE core plus
    ``n - rl`` one-BCE cores.

    At ``rl == n`` the chip is a single large core and the expression reduces
    to ``perf(n)`` (no parallel speedup beyond the big core).
    """
    check_fraction(f, "f")
    n = check_positive_int(n, "n")
    law = resolve_perf_law(perf)
    arr = _as_r_array(rl, "rl", n, "large-core size rl")
    return _out(gridkernels.hm_asymmetric(f, n, arr, law), rl)


def best_symmetric(
    f: float, n: int, perf: "str | PerfLaw | None" = None
) -> tuple[float, float]:
    """Return ``(r*, speedup*)`` maximising Eq 2 over power-of-two core sizes."""
    check_fraction(f, "f")
    n = check_positive_int(n, "n")
    r, sp = gridkernels.hm_best_symmetric_grid(f, n, resolve_perf_law(perf))
    return float(r), float(sp)
