"""Scaled (Gustafson) speedup with merging phases.

Amdahl's Law fixes the problem size; Gustafson's Law grows it with the
machine, which is exactly what Table IV's point-scaling experiment does:
doubling the points doubles the *parallel* work while the merge size
(C·D elements) stays put.  This module asks the Gustafson-side question
the paper leaves implicit: does weak scaling rescue reduction-heavy
applications?

Model.  At ``p`` cores each core keeps its single-core share of parallel
work (per-core time ``f``), the constant serial parts stay ``fcon + fcred``
and the growing merge costs ``fored · grow(p)`` — merge growth depends on
the *core count*, not the data size (Table IV's finding).  Then::

    scaled_speedup(p) = work_done(p) / time(p)
                      = (s + f·p) / (s_grown(p) + f)

With a linear merge, ``s_grown(p) ≈ fored·p``: numerator and denominator
both grow linearly, so scaled speedup *saturates* at ``f / fored`` instead
of growing without bound as classic Gustafson predicts — weak scaling
postpones the wall but does not remove it.
"""

from __future__ import annotations

import numpy as np

from repro.core.growth import GrowthFunction, resolve_growth
from repro.core.measured import _as_core_array
from repro.core.params import AppParams

__all__ = [
    "scaled_speedup_gustafson",
    "scaled_speedup_merging",
    "scaled_speedup_limit",
]


def scaled_speedup_gustafson(f: float, p: "float | np.ndarray") -> "float | np.ndarray":
    """Classic Gustafson–Barsis scaled speedup ``s + f·p`` (s = 1 − f)."""
    if not (0.0 <= f <= 1.0):
        raise ValueError(f"f must be in [0, 1], got {f}")
    arr = _as_core_array(p)
    out = (1.0 - f) + f * arr
    return float(out) if np.asarray(p).ndim == 0 else out


def scaled_speedup_merging(
    params: AppParams,
    p: "float | np.ndarray",
    growth: "str | GrowthFunction | None" = None,
) -> "float | np.ndarray":
    """Gustafson speedup with a core-count-dependent merging phase.

    Work scales with p (each core keeps its parallel share); the serial
    time grows as ``fcon + fcred + fored·grow(p)``.
    """
    g = resolve_growth(growth)
    arr = _as_core_array(p)
    work = params.serial + params.f * arr
    time = params.fcon + params.fcred + params.fored * np.asarray(g(arr)) + params.f
    out = work / time
    return float(out) if np.asarray(p).ndim == 0 else out


def scaled_speedup_limit(params: AppParams) -> float:
    """Asymptotic scaled speedup under linear merge growth: ``f / fored``.

    Infinite when fored = 0 (classic Gustafson's unbounded weak scaling).
    """
    if params.fored == 0.0:
        return float("inf")
    return params.f / params.fored
