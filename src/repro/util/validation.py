"""Argument-validation helpers used across the model and simulator layers.

All helpers raise :class:`ValueError` (or :class:`TypeError` for wrong types)
with messages that name the offending parameter, so errors surface at the
public API boundary rather than deep inside a numpy expression.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

__all__ = [
    "check_fraction",
    "check_positive",
    "check_positive_int",
    "ensure_array",
]


def check_fraction(value: float, name: str, *, inclusive: bool = True) -> float:
    """Validate that ``value`` lies in [0, 1] (or (0, 1) if not inclusive).

    Parameters
    ----------
    value:
        The candidate fraction.
    name:
        Parameter name used in the error message.
    inclusive:
        When True (default) the endpoints 0 and 1 are allowed.

    Returns
    -------
    float
        ``value`` unchanged, for call-chaining.
    """
    v = float(value)
    if np.isnan(v):
        raise ValueError(f"{name} must not be NaN")
    if inclusive:
        if not (0.0 <= v <= 1.0):
            raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    else:
        if not (0.0 < v < 1.0):
            raise ValueError(f"{name} must be in (0, 1), got {value!r}")
    return v


def check_positive(value: float, name: str, *, allow_zero: bool = False) -> float:
    """Validate that ``value`` is > 0 (or >= 0 when ``allow_zero``)."""
    v = float(value)
    if np.isnan(v):
        raise ValueError(f"{name} must not be NaN")
    if allow_zero:
        if v < 0:
            raise ValueError(f"{name} must be >= 0, got {value!r}")
    elif v <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return v


def check_positive_int(value: Any, name: str, *, minimum: int = 1) -> int:
    """Validate that ``value`` is an integer >= ``minimum`` and return it."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got bool")
    if isinstance(value, (int, np.integer)):
        v = int(value)
    elif isinstance(value, float) and float(value).is_integer():
        v = int(value)
    else:
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if v < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return v


def ensure_array(values: float | Sequence[float] | np.ndarray, name: str) -> np.ndarray:
    """Convert scalars/sequences to a float64 array, rejecting NaN entries."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if np.isnan(arr).any():
        raise ValueError(f"{name} contains NaN values")
    return arr
