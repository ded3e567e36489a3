"""Communication-aware reduction model (Section V.E, Eqs 6–8).

Section V.E refines the reduction fraction into a *computation* half
``fcomp`` and a *communication* half ``fcomm`` (the paper's ideal premise:
one communication per computation at a single core, so
``fcomp == fcomm == fred / 2``), each with its own growth law:

* **Symmetric CMP** (Eq 6) — serial part::

      (fcon + fcomp·(1 + growcomp(nc))) / perf(r)
          + fcomm·(1 + growcomm(nc))

  The communication term is *not* divided by ``perf`` — a bigger core does
  not make the network faster.

* **Asymmetric CMP** (Eq 7) — same split with ``perf(rl)`` and
  ``nc = (n - rl)/r + 1``.

* **2D mesh** (Eq 8) — for a parallel (privatised) reduction of ``x``
  elements over ``nc`` cores, the network must carry ``2(nc-1)·x`` messages
  over an average of ``sqrt(nc) - 1`` hops, with
  ``4·sqrt(nc)(sqrt(nc) - 1)`` link-transfers available per unit time::

      growcomm(nc) = 2(nc-1)·x·(sqrt(nc)-1) / (4·sqrt(nc)·(sqrt(nc)-1))
                   ≈ sqrt(nc) / 2

Computation growth follows the reduction technique: linear accumulation has
``growcomp = grow_linear - 1`` extra work (the factor ``(1 + growcomp)``
means ``growcomp`` is the *extra* work relative to one core), a tree has
logarithmic extra work, and a privatised parallel reduction has none
(``x/nc · nc = x``).  The paper's Fig 7 uses the parallel technique — the
whole point of Section V.E is that even when reduction computation is fully
parallelised, communication still grows as ``sqrt(nc)/2`` on a mesh.

Validated anchors: Fig 7(a) peak 46.6 at r = 8; Fig 7(b) peak 51.6 at
rl = 32, r = 4 (DESIGN.md §1).

The growth laws (:data:`MESH_COMM`, :data:`PARALLEL_COMP`, ...) live in
:mod:`repro.core.growth` and the equations in
:mod:`repro.core.gridkernels`; this module re-exports the former and
validates its input before evaluating the latter.
"""

from __future__ import annotations

import numpy as np

from repro.core import gridkernels
from repro.core.gridkernels import power_of_two_sizes
from repro.core.growth import (
    LINEAR_COMP,
    LOG_COMP,
    MESH_COMM,
    PARALLEL_COMP,
    GrowthFunction,
    mesh_growcomm,
)
from repro.core.params import AppParams
from repro.core.perf import PerfLaw, resolve_perf_law
from repro.util.validation import check_positive_int

__all__ = [
    "mesh_growcomm",
    "MESH_COMM",
    "PARALLEL_COMP",
    "LINEAR_COMP",
    "LOG_COMP",
    "speedup_symmetric_comm",
    "speedup_asymmetric_comm",
    "sweep_symmetric_comm",
    "sweep_asymmetric_comm",
]


def speedup_symmetric_comm(
    params: AppParams,
    n: int,
    r: "float | np.ndarray",
    comp: GrowthFunction = PARALLEL_COMP,
    comm: GrowthFunction = MESH_COMM,
    perf: "str | PerfLaw | None" = None,
) -> "float | np.ndarray":
    """Communication-aware symmetric-CMP speedup (Eq 6 serial part plugged
    into the Hill–Marty denominator)."""
    n = check_positive_int(n, "n")
    law = resolve_perf_law(perf)
    arr = np.asarray(r, dtype=np.float64)
    if np.any(arr <= 0) or np.any(arr > n):
        raise ValueError(f"core size r must be in (0, n], got {r!r}")
    out = gridkernels.comm_symmetric(params.f, params.fcon_share, n, arr, comp, comm, law)
    return float(out) if np.asarray(r).ndim == 0 else out


def speedup_asymmetric_comm(
    params: AppParams,
    n: int,
    rl: "float | np.ndarray",
    r: float = 1.0,
    comp: GrowthFunction = PARALLEL_COMP,
    comm: GrowthFunction = MESH_COMM,
    perf: "str | PerfLaw | None" = None,
) -> "float | np.ndarray":
    """Communication-aware asymmetric-CMP speedup (Eq 7)."""
    n = check_positive_int(n, "n")
    law = resolve_perf_law(perf)
    arr = np.asarray(rl, dtype=np.float64)
    if np.any(arr <= 0) or np.any(arr > n):
        raise ValueError(f"large-core size rl must be in (0, n], got {rl!r}")
    if r <= 0 or r > n:
        raise ValueError(f"small-core size r must be in (0, n], got {r}")
    if np.any(arr < r):
        raise ValueError(f"large core rl must be at least as big as small cores r={r}")
    out = gridkernels.comm_asymmetric(
        params.f, params.fcon_share, n, arr, r, comp, comm, law
    )
    return float(out) if np.asarray(rl).ndim == 0 else out


def sweep_symmetric_comm(
    params: AppParams,
    n: int,
    comp: GrowthFunction = PARALLEL_COMP,
    comm: GrowthFunction = MESH_COMM,
    perf: "str | PerfLaw | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Fig 7(a)-style sweep over power-of-two core sizes."""
    sizes = power_of_two_sizes(n)
    return sizes, np.asarray(speedup_symmetric_comm(params, n, sizes, comp, comm, perf))


def sweep_asymmetric_comm(
    params: AppParams,
    n: int,
    r: float = 1.0,
    comp: GrowthFunction = PARALLEL_COMP,
    comm: GrowthFunction = MESH_COMM,
    perf: "str | PerfLaw | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Fig 7(b)-style sweep over power-of-two large-core sizes."""
    sizes = power_of_two_sizes(n)
    sizes = sizes[sizes >= r]
    return sizes, np.asarray(
        speedup_asymmetric_comm(params, n, sizes, r, comp, comm, perf)
    )
