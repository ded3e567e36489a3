"""Eqs 1–8: the one implementation of the paper's analytical models.

Every equation is a numpy kernel over *raw broadcastable arrays* of
``(f, fcon_share, fored_share, r, rl)``, so a full Fig-4/Fig-5 design-space
sweep — or the whole conclusions grid — is one vectorized call.  The scalar
API (:mod:`repro.core.amdahl`, :mod:`~repro.core.hill_marty`,
:mod:`~repro.core.merging`, :mod:`~repro.core.communication`) is a view onto
these kernels: each public function validates its input, resolves the
growth and performance laws, makes one 0-d or broadcast call here and
converts the result.  The oracle is a frozen copy of the earlier
independent scalar implementation, ``tests/core/reference_models.py``;
``tests/differential/test_model_oracles.py`` and
``tests/core/test_model_reductions.py`` hold both the kernels and the
scalar API to it bit for bit, which the byte-exact golden reports
(``tests/golden``) depend on.

* **edge shapes** — kernels accept any broadcastable shapes, including
  singleton axes and empty grids (a size-0 axis yields a size-0 result).
* **f = 1.0** — unlike :class:`~repro.core.params.AppParams` (which forbids
  a zero serial fraction), the raw-array kernels accept ``f == 1.0``; the
  serial term is simply 0.
* **rl < r** — Eqs 5 and 7 *compute* such points rather than reject them,
  so reducers can evaluate a rectangular ``(rl, r)`` grid and mask them;
  the scalar API rejects them.

Design-space reducers (:func:`best_symmetric_grid`, :func:`best_asymmetric_grid`,
:func:`conclusions_grid`) keep the scalar optimisers' grids and tie-breaking:
``np.argmax`` picks the first maximum, and the asymmetric small-core choice
keeps the *earliest* ``r`` on ties (strict ``>`` update).
"""

from __future__ import annotations

import numpy as np

from repro.core.growth import (
    MESH_COMM,
    PARALLEL_COMP,
    GrowthFunction,
    mesh_growcomm,
    resolve_growth,
)
from repro.core.perf import PerfLaw, resolve_perf_law
from repro.util.validation import check_positive_int

__all__ = [
    "split_serial",
    "amdahl_speedup",
    "hm_symmetric",
    "hm_asymmetric",
    "hm_asymmetric_grouped",
    "merging_symmetric",
    "merging_asymmetric",
    "comm_symmetric",
    "comm_asymmetric",
    "mesh_growcomm",
    "power_of_two_sizes",
    "best_symmetric_grid",
    "best_asymmetric_grid",
    "hm_best_symmetric_grid",
    "hm_best_asymmetric_grouped_grid",
    "conclusions_grid",
]


def power_of_two_sizes(n: int, maximum: "int | None" = None) -> np.ndarray:
    """The paper's sweep grid: core sizes 1, 2, 4, ..., up to ``maximum``
    (default ``n``)."""
    n = check_positive_int(n, "n")
    cap = n if maximum is None else min(n, maximum)
    return np.array(
        [2**k for k in range(int(np.log2(cap)) + 1) if 2**k <= cap],
        dtype=np.float64,
    )


def _as_f64(value, name: str, lo: "float | None" = None,
            hi: "float | None" = None) -> np.ndarray:
    """Coerce to float64, range-checking elementwise (empty arrays pass)."""
    arr = np.asarray(value, dtype=np.float64)
    if lo is not None and np.any(arr < lo):
        raise ValueError(f"{name} must be >= {lo}, got {value!r}")
    if hi is not None and np.any(arr > hi):
        raise ValueError(f"{name} must be <= {hi}, got {value!r}")
    return arr


def split_serial(
    f: "float | np.ndarray",
    fcon_share: "float | np.ndarray",
    fored_share: "float | np.ndarray",
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """The Fig-1 serial-fraction decomposition as arrays.

    Returns ``(fcon, fcred, fored)`` — the absolute constant, constant-
    reduction and growing-reduction fractions — computed with the exact
    operation sequence of :class:`~repro.core.params.AppParams`'s derived
    properties, so values are bit-identical to the scalar path.
    """
    f = _as_f64(f, "f", 0.0, 1.0)
    con = _as_f64(fcon_share, "fcon_share", 0.0, 1.0)
    ored = _as_f64(fored_share, "fored_share", 0.0, 1.0)
    serial = 1.0 - f
    fcon = serial * con
    fred = serial * (1.0 - con)
    fored = fred * ored
    fcred = fred * (1.0 - ored)
    return fcon, fcred, fored


# ── Eq 1: Amdahl ─────────────────────────────────────────────────────────


def amdahl_speedup(
    f: "float | np.ndarray", p: "float | np.ndarray"
) -> np.ndarray:
    """Eq 1 over a broadcastable ``(f, p)`` grid."""
    f = _as_f64(f, "f", 0.0, 1.0)
    p = _as_f64(p, "p", 1.0)
    return 1.0 / ((1.0 - f) + f / p)


# ── Eqs 2–3: Hill–Marty ──────────────────────────────────────────────────


def hm_symmetric(
    f: "float | np.ndarray",
    n: int,
    r: "float | np.ndarray",
    perf: "str | PerfLaw | None" = None,
) -> np.ndarray:
    """Eq 2 over a broadcastable ``(f, r)`` grid."""
    n = check_positive_int(n, "n")
    law = resolve_perf_law(perf)
    f = _as_f64(f, "f", 0.0, 1.0)
    arr = _as_f64(r, "r", hi=n)
    if np.any(arr <= 0):
        raise ValueError(f"core size r must be > 0, got {r!r}")
    pr = np.asarray(law.fn(arr), dtype=np.float64)
    return 1.0 / ((1.0 - f) / pr + f * arr / (pr * n))


def hm_asymmetric(
    f: "float | np.ndarray",
    n: int,
    rl: "float | np.ndarray",
    perf: "str | PerfLaw | None" = None,
) -> np.ndarray:
    """Eq 3 over a broadcastable ``(f, rl)`` grid."""
    n = check_positive_int(n, "n")
    law = resolve_perf_law(perf)
    f = _as_f64(f, "f", 0.0, 1.0)
    arr = _as_f64(rl, "rl", hi=n)
    if np.any(arr <= 0):
        raise ValueError(f"large-core size rl must be > 0, got {rl!r}")
    prl = np.asarray(law.fn(arr), dtype=np.float64)
    return 1.0 / ((1.0 - f) / prl + f / (prl + n - arr))


def hm_asymmetric_grouped(
    f: "float | np.ndarray",
    n: int,
    rl: "float | np.ndarray",
    r: "float | np.ndarray" = 1.0,
    perf: "str | PerfLaw | None" = None,
) -> np.ndarray:
    """The grouped Eq 3 variant (Fig 5's Amdahl curves) over a grid."""
    n = check_positive_int(n, "n")
    law = resolve_perf_law(perf)
    f = _as_f64(f, "f", 0.0, 1.0)
    arr = _as_f64(rl, "rl", hi=n)
    rsm = _as_f64(r, "r", hi=n)
    if np.any(arr <= 0) or np.any(rsm <= 0):
        raise ValueError("core sizes must be > 0")
    prl = np.asarray(law.fn(arr), dtype=np.float64)
    pr = np.asarray(law.fn(rsm), dtype=np.float64)
    parallel_throughput = pr * (n - arr) / rsm + prl
    return 1.0 / ((1.0 - f) / prl + f / parallel_throughput)


# ── Eqs 4–5: merging-phase extended model ────────────────────────────────


def merging_symmetric(
    f: "float | np.ndarray",
    fcon_share: "float | np.ndarray",
    fored_share: "float | np.ndarray",
    n: int,
    r: "float | np.ndarray",
    growth: "str | GrowthFunction | None" = None,
    perf: "str | PerfLaw | None" = None,
) -> np.ndarray:
    """Eq 4 over a broadcastable ``(f, fcon_share, fored_share, r)`` grid."""
    n = check_positive_int(n, "n")
    g = resolve_growth(growth)
    law = resolve_perf_law(perf)
    arr = _as_f64(r, "r", hi=n)
    if np.any(arr <= 0):
        raise ValueError(f"core size r must be > 0, got {r!r}")
    fcon, fcred, fored = split_serial(f, fcon_share, fored_share)
    f = np.asarray(f, dtype=np.float64)
    nc = n / arr
    pr = np.asarray(law.fn(arr), dtype=np.float64)
    serial = fcon + fcred + fored * np.asarray(g.fn(nc), dtype=np.float64)
    return 1.0 / (serial / pr + f * arr / (pr * n))


def merging_asymmetric(
    f: "float | np.ndarray",
    fcon_share: "float | np.ndarray",
    fored_share: "float | np.ndarray",
    n: int,
    rl: "float | np.ndarray",
    r: "float | np.ndarray" = 1.0,
    growth: "str | GrowthFunction | None" = None,
    perf: "str | PerfLaw | None" = None,
) -> np.ndarray:
    """Eq 5 over a broadcastable ``(f, fcon_share, fored_share, rl, r)`` grid.

    Unlike the scalar path, ``rl < r`` points are *computed*, not rejected —
    reducers mask them out (see :func:`best_asymmetric_grid`), which lets a
    whole rectangular ``(rl, r)`` grid evaluate in one call.
    """
    n = check_positive_int(n, "n")
    g = resolve_growth(growth)
    law = resolve_perf_law(perf)
    arr = _as_f64(rl, "rl", hi=n)
    rsm = _as_f64(r, "r", hi=n)
    if np.any(arr <= 0) or np.any(rsm <= 0):
        raise ValueError("core sizes must be > 0")
    fcon, fcred, fored = split_serial(f, fcon_share, fored_share)
    f = np.asarray(f, dtype=np.float64)
    prl = np.asarray(law.fn(arr), dtype=np.float64)
    pr = np.asarray(law.fn(rsm), dtype=np.float64)
    n_small = (n - arr) / rsm
    nc = n_small + 1.0
    serial = fcon + fcred + fored * np.asarray(g.fn(nc), dtype=np.float64)
    parallel_throughput = pr * n_small + prl
    return 1.0 / (serial / prl + f / parallel_throughput)


# ── Eqs 6–8: communication-aware model ───────────────────────────────────


def _comm_serial(
    fcon: np.ndarray,
    fred: np.ndarray,
    nc: np.ndarray,
    perf_serial: np.ndarray,
    comp: GrowthFunction,
    comm: GrowthFunction,
) -> np.ndarray:
    """The communication-aware serial cost, common body of Eqs 6–7.

    ``perf_serial`` is ``perf(r)`` for symmetric chips or ``perf(rl)`` for
    asymmetric ones; the communication half is charged at wire speed
    regardless of core size."""
    fcomp = fred / 2.0
    fcomm = fred / 2.0
    compute = (fcon + fcomp * (1.0 + np.asarray(comp.fn(nc)))) / perf_serial
    communicate = fcomm * (1.0 + np.asarray(comm.fn(nc)))
    return compute + communicate


def comm_symmetric(
    f: "float | np.ndarray",
    fcon_share: "float | np.ndarray",
    n: int,
    r: "float | np.ndarray",
    comp: GrowthFunction = PARALLEL_COMP,
    comm: GrowthFunction = MESH_COMM,
    perf: "str | PerfLaw | None" = None,
) -> np.ndarray:
    """Eq 6 over a broadcastable ``(f, fcon_share, r)`` grid (the reduction
    split fcomp == fcomm == fred/2 is the paper's premise, so ``fored_share``
    does not enter)."""
    n = check_positive_int(n, "n")
    law = resolve_perf_law(perf)
    f = _as_f64(f, "f", 0.0, 1.0)
    con = _as_f64(fcon_share, "fcon_share", 0.0, 1.0)
    arr = _as_f64(r, "r", hi=n)
    if np.any(arr <= 0):
        raise ValueError(f"core size r must be > 0, got {r!r}")
    serial_frac = 1.0 - f
    fcon = serial_frac * con
    fred = serial_frac * (1.0 - con)
    pr = np.asarray(law.fn(arr), dtype=np.float64)
    nc = n / arr
    serial = _comm_serial(fcon, fred, nc, pr, comp, comm)
    return 1.0 / (serial + f * arr / (pr * n))


def comm_asymmetric(
    f: "float | np.ndarray",
    fcon_share: "float | np.ndarray",
    n: int,
    rl: "float | np.ndarray",
    r: "float | np.ndarray" = 1.0,
    comp: GrowthFunction = PARALLEL_COMP,
    comm: GrowthFunction = MESH_COMM,
    perf: "str | PerfLaw | None" = None,
) -> np.ndarray:
    """Eq 7 over a broadcastable ``(f, fcon_share, rl, r)`` grid."""
    n = check_positive_int(n, "n")
    law = resolve_perf_law(perf)
    f = _as_f64(f, "f", 0.0, 1.0)
    con = _as_f64(fcon_share, "fcon_share", 0.0, 1.0)
    arr = _as_f64(rl, "rl", hi=n)
    rsm = _as_f64(r, "r", hi=n)
    if np.any(arr <= 0) or np.any(rsm <= 0):
        raise ValueError("core sizes must be > 0")
    serial_frac = 1.0 - f
    fcon = serial_frac * con
    fred = serial_frac * (1.0 - con)
    prl = np.asarray(law.fn(arr), dtype=np.float64)
    pr = np.asarray(law.fn(rsm), dtype=np.float64)
    n_small = (n - arr) / rsm
    nc = n_small + 1.0
    serial = _comm_serial(fcon, fred, nc, prl, comp, comm)
    return 1.0 / (serial + f / (pr * n_small + prl))


# ── design-space reducers over the power-of-two grids ────────────────────


def _take_best(sp: np.ndarray, sizes: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """First-maximum argmax along the trailing (sizes) axis."""
    i = np.argmax(sp, axis=-1)
    best_size = sizes[i]
    best_sp = np.take_along_axis(sp, i[..., None], axis=-1)[..., 0]
    return best_size, best_sp


def best_symmetric_grid(
    f: "float | np.ndarray",
    fcon_share: "float | np.ndarray",
    fored_share: "float | np.ndarray",
    n: int = 256,
    growth: "str | GrowthFunction | None" = None,
    perf: "str | PerfLaw | None" = None,
) -> "tuple[np.ndarray, np.ndarray]":
    """The Eq 4 optimum over the power-of-two grid: returns ``(r*,
    speedup*)`` arrays over the broadcast parameter grid."""
    sizes = power_of_two_sizes(n)
    f, con, ored = np.broadcast_arrays(
        np.asarray(f, dtype=np.float64),
        np.asarray(fcon_share, dtype=np.float64),
        np.asarray(fored_share, dtype=np.float64),
    )
    sp = merging_symmetric(
        f[..., None], con[..., None], ored[..., None], n, sizes, growth, perf
    )
    return _take_best(sp, sizes)


def best_asymmetric_grid(
    f: "float | np.ndarray",
    fcon_share: "float | np.ndarray",
    fored_share: "float | np.ndarray",
    n: int = 256,
    r_choices: "tuple[float, ...]" = (1.0, 4.0, 16.0),
    growth: "str | GrowthFunction | None" = None,
    perf: "str | PerfLaw | None" = None,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """The Eq 5 optimum over the power-of-two ``rl`` grid and the given
    small-core choices: returns ``(rl*, r*, speedup*)`` arrays.  Ties keep
    the earliest ``r_choice`` (strict ``>`` update)."""
    sizes = power_of_two_sizes(n)
    f, con, ored = np.broadcast_arrays(
        np.asarray(f, dtype=np.float64),
        np.asarray(fcon_share, dtype=np.float64),
        np.asarray(fored_share, dtype=np.float64),
    )
    best_sp = np.full(f.shape, -np.inf)
    best_rl = np.zeros(f.shape)
    best_r = np.zeros(f.shape)
    for r in r_choices:
        feasible = sizes >= r
        if not feasible.any():
            continue
        sp = merging_asymmetric(
            f[..., None], con[..., None], ored[..., None], n, sizes, float(r),
            growth, perf,
        )
        cand_rl, cand_sp = _take_best(np.where(feasible, sp, -np.inf), sizes)
        better = cand_sp > best_sp
        best_sp = np.where(better, cand_sp, best_sp)
        best_rl = np.where(better, cand_rl, best_rl)
        best_r = np.where(better, float(r), best_r)
    if np.any(np.isneginf(best_sp)) and f.size:
        raise ValueError("no feasible asymmetric design for the given r_choices")
    return best_rl, best_r, best_sp


def hm_best_symmetric_grid(
    f: "float | np.ndarray",
    n: int = 256,
    perf: "str | PerfLaw | None" = None,
) -> "tuple[np.ndarray, np.ndarray]":
    """The Eq 2 optimum over the power-of-two grid: ``(r*, speedup*)``."""
    sizes = power_of_two_sizes(n)
    f = np.asarray(f, dtype=np.float64)
    sp = hm_symmetric(f[..., None], n, sizes, perf)
    return _take_best(sp, sizes)


def hm_best_asymmetric_grouped_grid(
    f: "float | np.ndarray",
    n: int = 256,
    r_choices: "tuple[float, ...]" = (1.0, 4.0, 16.0),
    perf: "str | PerfLaw | None" = None,
) -> np.ndarray:
    """The constant-serial asymmetric reference (grouped Eq 3) maximised
    over the same ``(rl, r)`` grids as :func:`best_asymmetric_grid`."""
    sizes = power_of_two_sizes(n)
    f = np.asarray(f, dtype=np.float64)
    best = np.full(f.shape, -np.inf)
    for r in r_choices:
        feasible = sizes >= r
        if not feasible.any():
            continue
        sp = hm_asymmetric_grouped(f[..., None], n, sizes, float(r), perf)
        best = np.maximum(best, np.where(feasible, sp, -np.inf).max(axis=-1))
    return best


def conclusions_grid(
    f: "float | np.ndarray",
    fcon_share: "float | np.ndarray",
    fored_share: "float | np.ndarray",
    n: int = 256,
) -> "dict[str, np.ndarray]":
    """All conclusions-experiment metrics for a whole parameter grid in one
    vectorized call: the Hill–Marty and Eq 4 symmetric optima, and the
    asymmetric-over-symmetric ratios under Eqs 4–5 and under Eqs 2–3."""
    hm_r, hm_sp = hm_best_symmetric_grid(f, n)
    ours_r, ours_sp = best_symmetric_grid(f, fcon_share, fored_share, n)
    _, _, asym_sp = best_asymmetric_grid(f, fcon_share, fored_share, n)
    hm_asym = hm_best_asymmetric_grouped_grid(f, n)
    return {
        "hm_r": hm_r,
        "hm_speedup": hm_sp,
        "ours_r": ours_r,
        "ours_speedup": ours_sp,
        "acmp_ratio": asym_sp / ours_sp,
        "amdahl_ratio": hm_asym / hm_sp,
    }
