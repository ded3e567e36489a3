"""Core performance laws ``perf(r)``.

The Hill–Marty framework measures chip area in *base-core equivalents*
(BCEs).  A core built from ``r`` BCEs runs sequential code ``perf(r)`` times
faster than a 1-BCE base core.  The paper (Section V.D) follows Borkar's
observation that performance is proportional to the square root of area —
``perf(r) = sqrt(r)`` — i.e. Pollack's rule.  This module provides that law
plus generalisations used by the ablation benchmarks.

All laws are vectorised: they accept scalars or numpy arrays of ``r``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.util.validation import check_positive

__all__ = [
    "PerfLaw",
    "SqrtPerf",
    "PollackPerf",
    "LinearPerf",
    "SQRT_PERF",
    "resolve_perf_law",
]

ArrayLike = "float | np.ndarray"


@dataclass(frozen=True)
class PerfLaw:
    """A sequential-performance law ``perf(r)``.

    Attributes
    ----------
    name:
        Short identifier used in reports and the CLI.
    fn:
        Vectorised callable mapping core size in BCEs to relative
        sequential performance.  Must satisfy ``fn(1) == 1``.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, r: "float | np.ndarray") -> "float | np.ndarray":
        arr = np.asarray(r, dtype=np.float64)
        if np.any(arr <= 0):
            raise ValueError(f"core size r must be > 0, got {r!r}")
        out = self.fn(arr)
        if arr.ndim == 0:
            return float(out)
        return out


def SqrtPerf() -> PerfLaw:
    """The paper's law: ``perf(r) = sqrt(r)`` (Pollack's rule).

    A 4-BCE core performs twice as fast as a 1-BCE core.
    """
    return PerfLaw("sqrt", np.sqrt)


def PollackPerf(theta: float) -> PerfLaw:
    """Generalised Pollack law ``perf(r) = r ** theta``.

    ``theta = 0.5`` recovers the paper's assumption; the ablation benchmarks
    sweep ``theta`` to test how sensitive the design conclusions are to the
    exact area-performance exponent.
    """
    check_positive(theta, "theta")
    if theta > 1.0:
        raise ValueError(
            f"theta must be <= 1 (super-linear returns on area are unphysical), got {theta}"
        )
    t = float(theta)
    return PerfLaw(f"pollack({t:g})", lambda r: np.power(r, t))


def LinearPerf() -> PerfLaw:
    """Idealised law ``perf(r) = r`` (perfect return on area).

    Under this law the symmetric-CMP parallel term is independent of ``r``;
    used as an upper-bound reference in ablations.
    """
    return PerfLaw("linear", lambda r: np.asarray(r, dtype=np.float64))


#: The default law used throughout the paper's evaluation.
SQRT_PERF = SqrtPerf()

_NAMED: dict[str, Callable[[], PerfLaw]] = {
    "sqrt": SqrtPerf,
    "linear": LinearPerf,
}


def resolve_perf_law(spec: "str | PerfLaw | None") -> PerfLaw:
    """Resolve a perf-law spec from a name, an existing law, or None.

    ``None`` and ``"sqrt"`` give the paper's default.  Strings of the form
    ``"pollack:<theta>"`` build a generalised Pollack law.
    """
    if spec is None:
        return SQRT_PERF
    if isinstance(spec, PerfLaw):
        return spec
    if spec in _NAMED:
        return _NAMED[spec]()
    if spec.startswith("pollack:"):
        return PollackPerf(float(spec.split(":", 1)[1]))
    raise ValueError(
        f"unknown perf law {spec!r}; expected one of {sorted(_NAMED)} or 'pollack:<theta>'"
    )
