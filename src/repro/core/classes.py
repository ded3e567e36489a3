"""Application classes of Table III (Section V.D).

The paper's design-space study categorises applications along three
dimensions, two cases each:

* parallelism — embarrassingly parallel (f = 0.999) vs
  non-embarrassingly parallel (f = 0.99);
* constant serial share — high (fcon = 90% of serial) vs
  moderate (fcon = 60%);
* reduction overhead — low (fored = 10% of reduction) vs
  high (fored = 80%).

The eight combinations drive Figs 4, 5 and 7.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.params import AppParams

__all__ = [
    "AppClass",
    "TABLE3_CLASSES",
    "get_class",
    "EMBARRASSING_F",
    "NON_EMBARRASSING_F",
    "HIGH_CONSTANT",
    "MODERATE_CONSTANT",
    "LOW_OVERHEAD",
    "HIGH_OVERHEAD",
]

EMBARRASSING_F = 0.999
NON_EMBARRASSING_F = 0.99
HIGH_CONSTANT = 0.90
MODERATE_CONSTANT = 0.60
LOW_OVERHEAD = 0.10
HIGH_OVERHEAD = 0.80


@dataclass(frozen=True)
class AppClass:
    """One row of Table III."""

    parallelism: str   # "emb" | "non-emb"
    constant: str      # "high" | "moderate"
    reduction: str     # "low" | "high"

    def __post_init__(self) -> None:
        if self.parallelism not in ("emb", "non-emb"):
            raise ValueError(f"parallelism must be 'emb' or 'non-emb', got {self.parallelism!r}")
        if self.constant not in ("high", "moderate"):
            raise ValueError(f"constant must be 'high' or 'moderate', got {self.constant!r}")
        if self.reduction not in ("low", "high"):
            raise ValueError(f"reduction must be 'low' or 'high', got {self.reduction!r}")

    @property
    def key(self) -> str:
        """Canonical identifier, e.g. ``'emb/high/low'``."""
        return f"{self.parallelism}/{self.constant}/{self.reduction}"

    def params(self) -> AppParams:
        """The Table III parameter values for this class."""
        return AppParams(
            f=EMBARRASSING_F if self.parallelism == "emb" else NON_EMBARRASSING_F,
            fcon_share=HIGH_CONSTANT if self.constant == "high" else MODERATE_CONSTANT,
            fored_share=LOW_OVERHEAD if self.reduction == "low" else HIGH_OVERHEAD,
            name=self.key,
        )


def _all_classes() -> tuple[AppClass, ...]:
    return tuple(
        AppClass(p, c, o)
        for c in ("high", "moderate")
        for o in ("low", "high")
        for p in ("emb", "non-emb")
    )


#: All eight Table III classes, ordered as the paper's figure panels:
#: (high-constant, low-overhead) first, embarrassing before non-embarrassing.
TABLE3_CLASSES: tuple[AppClass, ...] = _all_classes()


def get_class(parallelism: str, constant: str, reduction: str) -> AppClass:
    """Look up a class by its three dimension values."""
    return AppClass(parallelism, constant, reduction)
