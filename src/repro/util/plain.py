"""Lowering numpy results to plain, JSON-serialisable Python values."""

from __future__ import annotations

import numpy as np

__all__ = ["plainify"]


def plainify(value):
    """Lower numpy containers/scalars to JSON-clean python equivalents.

    float64 → float is exact (same IEEE-754 double), so a lowered result
    encodes to the same JSON as the arrays it came from.
    """
    if isinstance(value, dict):
        return {k: plainify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plainify(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    return value
