"""Amdahl's Law (Eq 1 of the paper).

The classical fixed-workload speedup bound: if a fraction ``f`` of a
sequential application can be parallelised perfectly over ``p`` processors
and the remaining ``s = 1 - f`` stays serial,

    speedup(p) = 1 / (s + f / p)

which approaches ``1 / s`` as ``p → ∞``.  :func:`speedup` is vectorised
over ``p`` and evaluates :func:`repro.core.gridkernels.amdahl_speedup`.
"""

from __future__ import annotations

import numpy as np

from repro.core.gridkernels import amdahl_speedup
from repro.util.validation import check_fraction

__all__ = ["speedup", "speedup_limit"]


def speedup(f: float, p: "float | np.ndarray") -> "float | np.ndarray":
    """Amdahl speedup with parallel fraction ``f`` on ``p`` processors.

    Parameters
    ----------
    f:
        Parallel fraction in [0, 1].
    p:
        Processor count(s), >= 1.  Scalar or array.

    Returns
    -------
    float or numpy.ndarray
        Speedup relative to one processor.
    """
    check_fraction(f, "f")
    arr = np.asarray(p, dtype=np.float64)
    if np.any(arr < 1):
        raise ValueError(f"processor count p must be >= 1, got {p!r}")
    out = amdahl_speedup(f, arr)
    return float(out) if arr.ndim == 0 else out


def speedup_limit(f: float) -> float:
    """The asymptotic speedup ``1 / (1 - f)`` (``inf`` when f == 1)."""
    check_fraction(f, "f")
    s = 1.0 - f
    return float("inf") if s == 0.0 else 1.0 / s
