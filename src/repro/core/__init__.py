"""The paper's analytical models: Amdahl, Hill–Marty, and the merging-phase
extensions (Eqs 1–8 of the paper).

Quick tour
----------
>>> from repro.core import AppParams, merging
>>> p = AppParams(f=0.999, fcon_share=0.60, fored_share=0.10)
>>> round(float(merging.speedup_symmetric(p, n=256, r=4)), 1)  # paper: 104.5
104.6
"""

from repro.core import (
    accuracy,
    amdahl,
    classes,
    communication,
    critical,
    energy,
    gridkernels,
    growth,
    hill_marty,
    measured,
    merging,
    mix,
    optimizer,
    params,
    perf,
    requirements,
    scaled,
)
from repro.core.classes import TABLE3_CLASSES, AppClass
from repro.core.growth import LINEAR, LOG, PARALLEL, GrowthFunction, resolve_growth
from repro.core.params import TABLE2, TABLE4, AppParams, MeasuredParams
from repro.core.perf import SQRT_PERF, PerfLaw, resolve_perf_law

__all__ = [
    # submodules
    "accuracy",
    "amdahl",
    "classes",
    "communication",
    "critical",
    "energy",
    "gridkernels",
    "growth",
    "hill_marty",
    "measured",
    "merging",
    "mix",
    "optimizer",
    "params",
    "perf",
    "requirements",
    "scaled",
    # common types/constants
    "AppParams",
    "MeasuredParams",
    "AppClass",
    "TABLE2",
    "TABLE3_CLASSES",
    "TABLE4",
    "GrowthFunction",
    "PerfLaw",
    "LINEAR",
    "LOG",
    "PARALLEL",
    "SQRT_PERF",
    "resolve_growth",
    "resolve_perf_law",
]
