"""Model-accuracy metrics (Fig 2(d) of the paper).

Fig 2(d) normalises the serial-section time *predicted* by the extended
model to the serial-section time *measured* in simulation, per core count.
A ratio of 1.0 means a perfect prediction; the paper reports a maximum
overestimation of +14% (fuzzy) and a maximum underestimation of −18%
(kmeans).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.util.validation import ensure_array

__all__ = ["AccuracyReport", "accuracy_ratio", "evaluate_accuracy"]


def accuracy_ratio(predicted: Sequence[float], measured: Sequence[float]) -> np.ndarray:
    """Element-wise predicted/measured ratio (the Fig 2(d) y-axis)."""
    p = ensure_array(predicted, "predicted")
    m = ensure_array(measured, "measured")
    if p.shape != m.shape:
        raise ValueError(f"shape mismatch: predicted {p.shape} vs measured {m.shape}")
    if np.any(m <= 0):
        raise ValueError("measured values must be > 0")
    return p / m


@dataclass(frozen=True)
class AccuracyReport:
    """Summary of prediction accuracy across a core-count sweep."""

    cores: tuple[int, ...]
    ratios: tuple[float, ...]

    @property
    def max_overestimation(self) -> float:
        """Largest (ratio − 1) above zero, e.g. 0.14 for +14%."""
        return max(0.0, max(self.ratios) - 1.0)

    @property
    def max_underestimation(self) -> float:
        """Largest (1 − ratio) above zero, e.g. 0.18 for −18%."""
        return max(0.0, 1.0 - min(self.ratios))

    def within(self, tolerance: float) -> bool:
        """True when every ratio is within ±tolerance of 1."""
        return all(abs(r - 1.0) <= tolerance for r in self.ratios)


def evaluate_accuracy(
    predicted_by_cores: Mapping[int, float],
    measured_by_cores: Mapping[int, float],
) -> AccuracyReport:
    """Build an :class:`AccuracyReport` from per-core-count serial times.

    Only core counts present in both mappings are evaluated (the paper
    compares at 2, 4, 8 and 16 cores).
    """
    common = sorted(set(predicted_by_cores) & set(measured_by_cores))
    if not common:
        raise ValueError("no common core counts between predicted and measured data")
    ratios = accuracy_ratio(
        [predicted_by_cores[c] for c in common],
        [measured_by_cores[c] for c in common],
    )
    return AccuracyReport(cores=tuple(common), ratios=tuple(float(r) for r in ratios))
