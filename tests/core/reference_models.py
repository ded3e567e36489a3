"""A frozen copy of the scalar model stack, as a test-only oracle for Eqs 1–8.

``repro.core.gridkernels`` is the one implementation of the paper's
equations, and the scalar API (``repro.core.amdahl``, ``hill_marty``,
``merging``, ``communication``, ``optimizer``) is a thin view onto it, so
comparing the two would compare the code with itself.  This module keeps
the scalar stack exactly as it stood while it still evaluated every
equation on its own: the same float64 operations in the same order, and
the same power-of-two optimiser loops.
``tests/differential/test_model_oracles.py`` and
``tests/core/test_model_reductions.py`` demand that both the kernels and
the scalar API equal it bit for bit.

Function bodies are verbatim; only the names carry a module prefix
(``hm_``, ``merging_``, ``comm_``), and the namespaces at the bottom
(:data:`amdahl`, :data:`hill_marty`, :data:`merging`, :data:`communication`,
:data:`optimizer`, :data:`conclusions`) give them back their module names.

Do not optimise or "fix" this file: its value is that it does not change.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from repro.core.growth import GrowthFunction, resolve_growth
from repro.core.params import AppParams
from repro.core.perf import PerfLaw, resolve_perf_law
from repro.util.validation import check_fraction, check_positive_int

__all__ = [
    "amdahl",
    "hill_marty",
    "merging",
    "communication",
    "optimizer",
    "conclusions",
]


# ── Eq 1: Amdahl (repro.core.amdahl) ─────────────────────────────────────


def amdahl_speedup(f: float, p: "float | np.ndarray") -> "float | np.ndarray":
    check_fraction(f, "f")
    arr = np.asarray(p, dtype=np.float64)
    if np.any(arr < 1):
        raise ValueError(f"processor count p must be >= 1, got {p!r}")
    out = 1.0 / ((1.0 - f) + f / arr)
    return float(out) if arr.ndim == 0 else out


# ── Eqs 2–3: Hill–Marty (repro.core.hill_marty) ──────────────────────────


def _as_r_array(r: "float | np.ndarray", name: str) -> np.ndarray:
    arr = np.asarray(r, dtype=np.float64)
    if np.any(arr <= 0):
        raise ValueError(f"{name} must be > 0, got {r!r}")
    return arr


def hm_speedup_symmetric(
    f: float,
    n: int,
    r: "float | np.ndarray",
    perf: "str | PerfLaw | None" = None,
) -> "float | np.ndarray":
    check_fraction(f, "f")
    n = check_positive_int(n, "n")
    law = resolve_perf_law(perf)
    arr = _as_r_array(r, "r")
    if np.any(arr > n):
        raise ValueError(f"core size r must be <= n={n}")
    pr = np.asarray(law(arr), dtype=np.float64)
    out = 1.0 / ((1.0 - f) / pr + f * arr / (pr * n))
    return float(out) if np.asarray(r).ndim == 0 else out


def hm_speedup_asymmetric(
    f: float,
    n: int,
    rl: "float | np.ndarray",
    perf: "str | PerfLaw | None" = None,
) -> "float | np.ndarray":
    check_fraction(f, "f")
    n = check_positive_int(n, "n")
    law = resolve_perf_law(perf)
    arr = _as_r_array(rl, "rl")
    if np.any(arr > n):
        raise ValueError(f"large-core size rl must be <= n={n}")
    prl = np.asarray(law(arr), dtype=np.float64)
    out = 1.0 / ((1.0 - f) / prl + f / (prl + n - arr))
    return float(out) if np.asarray(rl).ndim == 0 else out


def hm_speedup_asymmetric_grouped(
    f: float,
    n: int,
    rl: "float | np.ndarray",
    r: float = 1.0,
    perf: "str | PerfLaw | None" = None,
) -> "float | np.ndarray":
    check_fraction(f, "f")
    n = check_positive_int(n, "n")
    law = resolve_perf_law(perf)
    arr = _as_r_array(rl, "rl")
    if np.any(arr > n):
        raise ValueError(f"large-core size rl must be <= n={n}")
    if r <= 0 or r > n:
        raise ValueError(f"small-core size r must be in (0, n], got {r}")
    prl = np.asarray(law(arr), dtype=np.float64)
    pr = float(law(r))
    parallel_throughput = pr * (n - arr) / r + prl
    out = 1.0 / ((1.0 - f) / prl + f / parallel_throughput)
    return float(out) if np.asarray(rl).ndim == 0 else out


def _power_of_two_sizes(n: int) -> np.ndarray:
    return np.array([2**k for k in range(int(np.log2(n)) + 1) if 2**k <= n], dtype=np.float64)


def hm_best_symmetric(
    f: float, n: int, perf: "str | PerfLaw | None" = None
) -> tuple[float, float]:
    sizes = _power_of_two_sizes(check_positive_int(n, "n"))
    sp = np.asarray(hm_speedup_symmetric(f, n, sizes, perf))
    i = int(np.argmax(sp))
    return float(sizes[i]), float(sp[i])


def hm_best_asymmetric(
    f: float, n: int, perf: "str | PerfLaw | None" = None
) -> tuple[float, float]:
    sizes = _power_of_two_sizes(check_positive_int(n, "n"))
    sp = np.asarray(hm_speedup_asymmetric(f, n, sizes, perf))
    i = int(np.argmax(sp))
    return float(sizes[i]), float(sp[i])


# ── Eqs 4–5: merging-phase model (repro.core.merging) ────────────────────


def power_of_two_sizes(n: int, maximum: "int | None" = None) -> np.ndarray:
    n = check_positive_int(n, "n")
    cap = n if maximum is None else min(n, maximum)
    return np.array(
        [2**k for k in range(int(np.log2(cap)) + 1) if 2**k <= cap],
        dtype=np.float64,
    )


def _as_positive_array(value: "float | np.ndarray", name: str, upper: float) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if np.any(arr <= 0):
        raise ValueError(f"{name} must be > 0, got {value!r}")
    if np.any(arr > upper):
        raise ValueError(f"{name} must be <= {upper}, got {value!r}")
    return arr


def merging_serial_term_symmetric(
    params: AppParams,
    n: int,
    r: "float | np.ndarray",
    growth: "str | GrowthFunction | None" = None,
) -> "float | np.ndarray":
    n = check_positive_int(n, "n")
    g = resolve_growth(growth)
    arr = _as_positive_array(r, "r", n)
    nc = n / arr
    out = params.fcon + params.fcred + params.fored * np.asarray(g(nc), dtype=np.float64)
    return float(out) if np.asarray(r).ndim == 0 else out


def merging_speedup_symmetric(
    params: AppParams,
    n: int,
    r: "float | np.ndarray",
    growth: "str | GrowthFunction | None" = None,
    perf: "str | PerfLaw | None" = None,
) -> "float | np.ndarray":
    n = check_positive_int(n, "n")
    law = resolve_perf_law(perf)
    arr = _as_positive_array(r, "r", n)
    pr = np.asarray(law(arr), dtype=np.float64)
    serial = np.asarray(merging_serial_term_symmetric(params, n, arr, growth), dtype=np.float64)
    out = 1.0 / (serial / pr + params.f * arr / (pr * n))
    return float(out) if np.asarray(r).ndim == 0 else out


def merging_speedup_asymmetric(
    params: AppParams,
    n: int,
    rl: "float | np.ndarray",
    r: float = 1.0,
    growth: "str | GrowthFunction | None" = None,
    perf: "str | PerfLaw | None" = None,
) -> "float | np.ndarray":
    n = check_positive_int(n, "n")
    law = resolve_perf_law(perf)
    g = resolve_growth(growth)
    arr = _as_positive_array(rl, "rl", n)
    if r <= 0 or r > n:
        raise ValueError(f"small-core size r must be in (0, n], got {r}")
    if np.any(arr < r):
        raise ValueError(f"large core rl must be at least as big as small cores r={r}")
    prl = np.asarray(law(arr), dtype=np.float64)
    pr = float(law(r))
    n_small = (n - arr) / r
    nc = n_small + 1.0  # reduction participants: small cores + the large core
    serial = params.fcon + params.fcred + params.fored * np.asarray(g(nc), dtype=np.float64)
    parallel_throughput = pr * n_small + prl
    out = 1.0 / (serial / prl + params.f / parallel_throughput)
    return float(out) if np.asarray(rl).ndim == 0 else out


@dataclass(frozen=True)
class SymmetricDesign:
    r: float
    speedup: float
    n: int


@dataclass(frozen=True)
class AsymmetricDesign:
    rl: float
    r: float
    speedup: float
    n: int


def merging_sweep_symmetric(
    params: AppParams,
    n: int,
    growth: "str | GrowthFunction | None" = None,
    perf: "str | PerfLaw | None" = None,
    sizes: "np.ndarray | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    grid = power_of_two_sizes(n) if sizes is None else np.asarray(sizes, dtype=np.float64)
    return grid, np.asarray(merging_speedup_symmetric(params, n, grid, growth, perf))


def merging_sweep_asymmetric(
    params: AppParams,
    n: int,
    r: float = 1.0,
    growth: "str | GrowthFunction | None" = None,
    perf: "str | PerfLaw | None" = None,
    sizes: "np.ndarray | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    grid = power_of_two_sizes(n) if sizes is None else np.asarray(sizes, dtype=np.float64)
    grid = grid[grid >= r]
    return grid, np.asarray(merging_speedup_asymmetric(params, n, grid, r, growth, perf))


def merging_best_symmetric(
    params: AppParams,
    n: int,
    growth: "str | GrowthFunction | None" = None,
    perf: "str | PerfLaw | None" = None,
) -> SymmetricDesign:
    sizes, sp = merging_sweep_symmetric(params, n, growth, perf)
    i = int(np.argmax(sp))
    return SymmetricDesign(r=float(sizes[i]), speedup=float(sp[i]), n=n)


def merging_best_asymmetric(
    params: AppParams,
    n: int,
    r_choices: "tuple[float, ...]" = (1.0, 4.0, 16.0),
    growth: "str | GrowthFunction | None" = None,
    perf: "str | PerfLaw | None" = None,
) -> AsymmetricDesign:
    best: AsymmetricDesign | None = None
    for r in r_choices:
        sizes, sp = merging_sweep_asymmetric(params, n, r, growth, perf)
        if sizes.size == 0:
            continue
        i = int(np.argmax(sp))
        cand = AsymmetricDesign(rl=float(sizes[i]), r=float(r), speedup=float(sp[i]), n=n)
        if best is None or cand.speedup > best.speedup:
            best = cand
    if best is None:
        raise ValueError("no feasible asymmetric design for the given r_choices")
    return best


# ── Eqs 6–8: communication-aware model (repro.core.communication) ────────


@dataclass(frozen=True)
class CommGrowth:
    name: str
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, nc: "float | np.ndarray") -> "float | np.ndarray":
        arr = np.asarray(nc, dtype=np.float64)
        if np.any(arr < 1):
            raise ValueError(f"core count nc must be >= 1, got {nc!r}")
        out = self.fn(arr)
        return float(out) if np.asarray(nc).ndim == 0 else out


def mesh_growcomm(nc: np.ndarray) -> np.ndarray:
    arr = np.asarray(nc, dtype=np.float64)
    return np.where(arr > 1.0, np.sqrt(arr) / 2.0, 0.0)


MESH_COMM = CommGrowth("mesh2d", mesh_growcomm)


@dataclass(frozen=True)
class CompGrowth:
    name: str
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, nc: "float | np.ndarray") -> "float | np.ndarray":
        arr = np.asarray(nc, dtype=np.float64)
        if np.any(arr < 1):
            raise ValueError(f"core count nc must be >= 1, got {nc!r}")
        out = self.fn(arr)
        return float(out) if np.asarray(nc).ndim == 0 else out


PARALLEL_COMP = CompGrowth("parallel", lambda nc: np.zeros_like(np.asarray(nc, dtype=float)))
LINEAR_COMP = CompGrowth("linear", lambda nc: np.asarray(nc, dtype=float) - 1.0)
LOG_COMP = CompGrowth("log", lambda nc: np.maximum(np.log2(np.asarray(nc, dtype=float)), 0.0))


def comm_serial_term_comm(
    params: AppParams,
    nc: "float | np.ndarray",
    perf_serial: "float | np.ndarray",
    comp: CompGrowth = PARALLEL_COMP,
    comm: CommGrowth = MESH_COMM,
) -> np.ndarray:
    nc_arr = np.asarray(nc, dtype=np.float64)
    ps = np.asarray(perf_serial, dtype=np.float64)
    compute = (params.fcon + params.fcomp * (1.0 + np.asarray(comp(nc_arr)))) / ps
    communicate = params.fcomm * (1.0 + np.asarray(comm(nc_arr)))
    return compute + communicate


def comm_speedup_symmetric_comm(
    params: AppParams,
    n: int,
    r: "float | np.ndarray",
    comp: CompGrowth = PARALLEL_COMP,
    comm: CommGrowth = MESH_COMM,
    perf: "str | PerfLaw | None" = None,
) -> "float | np.ndarray":
    n = check_positive_int(n, "n")
    law = resolve_perf_law(perf)
    arr = np.asarray(r, dtype=np.float64)
    if np.any(arr <= 0) or np.any(arr > n):
        raise ValueError(f"core size r must be in (0, n], got {r!r}")
    pr = np.asarray(law(arr), dtype=np.float64)
    nc = n / arr
    serial = comm_serial_term_comm(params, nc, pr, comp, comm)
    out = 1.0 / (serial + params.f * arr / (pr * n))
    return float(out) if np.asarray(r).ndim == 0 else out


def comm_speedup_asymmetric_comm(
    params: AppParams,
    n: int,
    rl: "float | np.ndarray",
    r: float = 1.0,
    comp: CompGrowth = PARALLEL_COMP,
    comm: CommGrowth = MESH_COMM,
    perf: "str | PerfLaw | None" = None,
) -> "float | np.ndarray":
    n = check_positive_int(n, "n")
    law = resolve_perf_law(perf)
    arr = np.asarray(rl, dtype=np.float64)
    if np.any(arr <= 0) or np.any(arr > n):
        raise ValueError(f"large-core size rl must be in (0, n], got {rl!r}")
    if r <= 0 or r > n:
        raise ValueError(f"small-core size r must be in (0, n], got {r}")
    if np.any(arr < r):
        raise ValueError(f"large core rl must be at least as big as small cores r={r}")
    prl = np.asarray(law(arr), dtype=np.float64)
    pr = float(law(r))
    n_small = (n - arr) / r
    nc = n_small + 1.0
    serial = comm_serial_term_comm(params, nc, prl, comp, comm)
    out = 1.0 / (serial + params.f / (pr * n_small + prl))
    return float(out) if np.asarray(rl).ndim == 0 else out


# ── design-space optimisers (repro.core.optimizer, conclusions) ──────────


@dataclass(frozen=True)
class DesignComparison:
    params: AppParams
    symmetric: SymmetricDesign
    asymmetric: AsymmetricDesign
    amdahl_symmetric: float
    amdahl_asymmetric: float

    @property
    def acmp_speedup_ratio(self) -> float:
        return self.asymmetric.speedup / self.symmetric.speedup

    @property
    def amdahl_speedup_ratio(self) -> float:
        return self.amdahl_asymmetric / self.amdahl_symmetric


def compare_architectures(
    params: AppParams,
    n: int = 256,
    r_choices: Sequence[float] = (1.0, 4.0, 16.0),
    growth: "str | GrowthFunction | None" = None,
    perf: "str | PerfLaw | None" = None,
) -> DesignComparison:
    sym = merging_best_symmetric(params, n, growth, perf)
    asym = merging_best_asymmetric(params, n, tuple(r_choices), growth, perf)
    _, hm_sym = hm_best_symmetric(params.f, n, perf)
    # Amdahl's asymmetric reference uses the same grouped form as Eq 5 but
    # with a constant serial section; maximise over the same (rl, r) grid.
    hm_asym = -np.inf
    for r in r_choices:
        sizes = power_of_two_sizes(n)
        sizes = sizes[sizes >= r]
        sp = np.asarray(
            hm_speedup_asymmetric_grouped(params.f, n, sizes, float(r), perf)
        )
        hm_asym = max(hm_asym, float(sp.max()))
    return DesignComparison(
        params=params,
        symmetric=sym,
        asymmetric=asym,
        amdahl_symmetric=hm_sym,
        amdahl_asymmetric=float(hm_asym),
    )


def optimal_r_map(f, n, fcon_shares, fored_shares, growth=None, perf=None) -> np.ndarray:
    cons = list(fcon_shares)
    ores = list(fored_shares)
    out = np.empty((len(cons), len(ores)), dtype=np.float64)
    for i, c in enumerate(cons):
        for j, o in enumerate(ores):
            p = AppParams(f=f, fcon_share=c, fored_share=o)
            out[i, j] = merging_best_symmetric(p, n, growth, perf).r
    return out


def evaluate_point(f: float, fcon_share: float, fored_share: float, n: int) -> dict:
    p = AppParams(f=f, fcon_share=fcon_share, fored_share=fored_share)
    hm_r, hm_sp = hm_best_symmetric(p.f, n)
    ours = merging_best_symmetric(p, n)
    cmp_ = compare_architectures(p, n)
    return {
        "hm_r": float(hm_r),
        "hm_speedup": float(hm_sp),
        "ours_r": float(ours.r),
        "ours_speedup": float(ours.speedup),
        "acmp_ratio": float(cmp_.acmp_speedup_ratio),
        "amdahl_ratio": float(cmp_.amdahl_speedup_ratio),
    }


amdahl = SimpleNamespace(speedup=amdahl_speedup)
hill_marty = SimpleNamespace(
    speedup_symmetric=hm_speedup_symmetric,
    speedup_asymmetric=hm_speedup_asymmetric,
    speedup_asymmetric_grouped=hm_speedup_asymmetric_grouped,
    best_symmetric=hm_best_symmetric,
    best_asymmetric=hm_best_asymmetric,
)
merging = SimpleNamespace(
    power_of_two_sizes=power_of_two_sizes,
    serial_term_symmetric=merging_serial_term_symmetric,
    speedup_symmetric=merging_speedup_symmetric,
    speedup_asymmetric=merging_speedup_asymmetric,
    sweep_symmetric=merging_sweep_symmetric,
    sweep_asymmetric=merging_sweep_asymmetric,
    best_symmetric=merging_best_symmetric,
    best_asymmetric=merging_best_asymmetric,
)
communication = SimpleNamespace(
    mesh_growcomm=mesh_growcomm,
    MESH_COMM=MESH_COMM,
    PARALLEL_COMP=PARALLEL_COMP,
    LINEAR_COMP=LINEAR_COMP,
    LOG_COMP=LOG_COMP,
    serial_term_comm=comm_serial_term_comm,
    speedup_symmetric_comm=comm_speedup_symmetric_comm,
    speedup_asymmetric_comm=comm_speedup_asymmetric_comm,
)
optimizer = SimpleNamespace(
    compare_architectures=compare_architectures,
    optimal_r_map=optimal_r_map,
)
conclusions = SimpleNamespace(evaluate_point=evaluate_point)
