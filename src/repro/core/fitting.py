"""Fitting model parameters to measured speedup curves.

:mod:`repro.workloads.instrument` extracts parameters from *phase-level*
timings, which need an instrumented run.  Often all a user has is a
speedup-vs-cores curve from an uninstrumented application; this module
recovers the extended model's parameters from exactly that:

    speedup(p) = 1 / ( a + b·(p−1)^alpha + f/p ),   f = 1 − a

where ``a`` is the single-core serial fraction (fcon + fcred) and ``b``
the growing merge cost per (p−1)^alpha.  The decomposition of ``a`` into
fcon vs fcred is *not identifiable* from a speedup curve alone (both are
constants at p = 1); :func:`to_measured_params` therefore takes an assumed
reduction share when a full Table II-style record is needed.

Fitting is nonlinear least squares on *log speedup* (scipy), which weights
small and large speedups evenly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.params import MeasuredParams
from repro.util.validation import check_fraction, ensure_array

__all__ = ["SerialGrowthFit", "fit_amdahl", "fit_serial_growth", "to_measured_params"]


@dataclass(frozen=True)
class SerialGrowthFit:
    """Result of fitting the extended model to a speedup curve.

    ``serial`` is the single-core serial fraction, ``slope`` the growth
    coefficient (absolute fraction per (p−1)^alpha), ``alpha`` the growth
    exponent, ``residual`` the RMS of log-speedup errors.
    """

    serial: float
    slope: float
    alpha: float
    residual: float

    @property
    def f(self) -> float:
        """Fitted parallel fraction."""
        return 1.0 - self.serial

    def serial_time(self, p: "float | np.ndarray") -> "float | np.ndarray":
        """Fitted serial time S(p) as a fraction of single-core time."""
        arr = np.asarray(p, dtype=np.float64)
        out = self.serial + self.slope * np.power(np.maximum(arr - 1.0, 0.0), self.alpha)
        return float(out) if np.asarray(p).ndim == 0 else out

    def predict(self, p: "float | np.ndarray") -> "float | np.ndarray":
        """Fitted speedup at ``p`` cores."""
        arr = np.asarray(p, dtype=np.float64)
        out = 1.0 / (np.asarray(self.serial_time(arr)) + self.f / arr)
        return float(out) if np.asarray(p).ndim == 0 else out

    def peak(self, max_cores: int = 65536) -> tuple[int, float]:
        """Core count and value of the fitted curve's maximum."""
        cores = np.arange(1, max_cores + 1, dtype=np.float64)
        sp = np.asarray(self.predict(cores))
        i = int(np.argmax(sp))
        return int(cores[i]), float(sp[i])


def _validate_curve(cores: Sequence[float], speedups: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    p = ensure_array(cores, "cores")
    s = ensure_array(speedups, "speedups")
    if p.shape != s.shape:
        raise ValueError(f"cores {p.shape} and speedups {s.shape} differ in length")
    if p.size < 3:
        raise ValueError("need at least three measurement points")
    if np.any(p < 1) or np.any(s <= 0):
        raise ValueError("cores must be >= 1 and speedups > 0")
    order = np.argsort(p)
    return p[order], s[order]


def fit_amdahl(cores: Sequence[float], speedups: Sequence[float]) -> float:
    """Least-squares Amdahl fit: the serial fraction ``s`` minimising the
    residual of ``1/speedup = s·(1 − 1/p) + 1/p`` (linear in s)."""
    p, sp = _validate_curve(cores, speedups)
    x = 1.0 - 1.0 / p
    y = 1.0 / sp - 1.0 / p
    denom = float(np.dot(x, x))
    if denom == 0:
        raise ValueError("curve has no multi-core points")
    return float(np.clip(np.dot(x, y) / denom, 0.0, 1.0))


def fit_serial_growth(
    cores: Sequence[float],
    speedups: Sequence[float],
    fix_alpha: "float | None" = None,
) -> SerialGrowthFit:
    """Fit the extended model to a speedup curve.

    Parameters
    ----------
    cores / speedups:
        The measured curve (>= 3 points; more points sharpen alpha).
    fix_alpha:
        Pin the growth exponent (1.0 = linear) instead of fitting it —
        recommended with fewer than five points.
    """
    from scipy.optimize import least_squares

    p, sp = _validate_curve(cores, speedups)
    log_measured = np.log(sp)
    s0 = max(1e-6, fit_amdahl(p, sp))

    def model(theta: np.ndarray) -> np.ndarray:
        a, b, alpha = theta
        if fix_alpha is not None:
            alpha = fix_alpha
        st = a + b * np.power(np.maximum(p - 1.0, 0.0), alpha)
        return np.log(1.0 / (st + (1.0 - a) / p)) - log_measured

    theta0 = np.array([s0, s0 / 4 + 1e-9, 1.0])
    bounds = (
        np.array([1e-12, 0.0, 0.25]),
        np.array([0.5, 0.5, 3.0]),
    )
    result = least_squares(model, theta0, bounds=bounds)
    a, b, alpha = result.x
    if fix_alpha is not None:
        alpha = fix_alpha
    residual = float(np.sqrt(np.mean(result.fun**2)))
    return SerialGrowthFit(
        serial=float(a), slope=float(b), alpha=float(alpha), residual=residual
    )


def to_measured_params(
    fit: SerialGrowthFit, fred_share: float, name: str = "fitted"
) -> MeasuredParams:
    """Convert a speedup-curve fit into a Table II-style record.

    ``fred_share`` (the reduction's share of single-core serial time) is
    not identifiable from the curve and must be supplied — e.g. from one
    instrumented run or from the Table II values of a similar application.
    """
    check_fraction(fred_share, "fred_share", inclusive=False)
    fcred = fit.serial * fred_share
    return MeasuredParams(
        name=name,
        serial_pct=100.0 * fit.serial,
        critical_pct=0.0,
        fored_rel=fit.slope / fcred if fcred > 0 else 0.0,
        fred_share=fred_share,
        fcon_share=1.0 - fred_share,
        growth_alpha=fit.alpha,
    )
