"""Application parameter records (Fig 1 / Table II / Table III of the paper).

The paper decomposes a parallel application's execution into a parallel
fraction ``f`` and a serial fraction ``s = 1 - f``; the serial fraction
further splits into (Fig 1)::

    s ─┬─ fcon   constant serial fraction (startup, stop criteria, ...)
       └─ fred   reduction (merging-phase) fraction
             ├─ fcred  constant part of the reduction
             └─ fored  part of the reduction whose cost grows with cores

Two parameterisations coexist in the paper and both are supported here:

* :class:`AppParams` — the *design-space* form of Table III.  ``fcon_share``
  is fcon as a share of serial time and ``fored_share`` is the growing part
  as a share of *reduction* time.  Both lie in [0, 1].  This form plugs
  straight into Eqs 4–7.
* :class:`MeasuredParams` — the *measured* form of Table II, where
  ``fored_rel`` is the relative increase of reduction time over ``fcred``
  per added core and may exceed 1 (hop: 1.55).  This form drives the
  serial-time growth model of Fig 2(b)/(d) and the Fig 3 predictions (see
  :mod:`repro.core.measured`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

from repro.util.validation import check_fraction, check_positive

__all__ = [
    "AppParams",
    "MeasuredParams",
    "TABLE2",
    "TABLE2_CRITICAL_SECTION",
    "TABLE4",
    "DatasetRecord",
]


@dataclass(frozen=True)
class AppParams:
    """Design-space application parameters (Table III form).

    Parameters
    ----------
    f:
        Parallel fraction (0 < f < 1).
    fcon_share:
        Constant serial fraction as a share of total serial time,
        ``fcon(%)`` in the paper's tables.
    fored_share:
        Growing reduction share of the *reduction* fraction,
        ``fored(%)`` in Table III.
    name:
        Optional label for reports.
    """

    f: float
    fcon_share: float
    fored_share: float
    name: str = ""

    def __post_init__(self) -> None:
        check_fraction(self.f, "f", inclusive=False)
        check_fraction(self.fcon_share, "fcon_share")
        check_fraction(self.fored_share, "fored_share")

    # ── absolute fractions of total single-core execution time ────────────
    @property
    def serial(self) -> float:
        """Total serial fraction ``s = 1 - f``."""
        return 1.0 - self.f

    @property
    def fcon(self) -> float:
        """Constant serial fraction (absolute)."""
        return self.serial * self.fcon_share

    @property
    def fred(self) -> float:
        """Reduction fraction (absolute)."""
        return self.serial * (1.0 - self.fcon_share)

    @property
    def fored(self) -> float:
        """Growing reduction fraction (absolute)."""
        return self.fred * self.fored_share

    @property
    def fcred(self) -> float:
        """Constant reduction fraction (absolute)."""
        return self.fred * (1.0 - self.fored_share)

    # ── communication split (Section V.E) ────────────────────────────────
    @property
    def fcomp(self) -> float:
        """Computation half of the reduction fraction (Eq 6 premise:
        one computation per communication, so fcomp == fcomm == fred/2)."""
        return self.fred / 2.0

    @property
    def fcomm(self) -> float:
        """Communication half of the reduction fraction."""
        return self.fred / 2.0

    def with_(self, **changes: float) -> "AppParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.name or 'app'}: f={self.f:g}, fcon={self.fcon_share:.0%} of serial, "
            f"fored={self.fored_share:.0%} of reduction"
        )


@dataclass(frozen=True)
class MeasuredParams:
    """Measured application parameters (Table II form).

    Parameters
    ----------
    name:
        Application name (kmeans / fuzzy / hop).
    serial_pct:
        Serial fraction of single-core execution time, in percent
        (paper: 0.015 for kmeans means s = 0.00015).
    critical_pct:
        Fraction of time in critical sections, percent (reported but
        excluded from the analysis, as in the paper).
    fored_rel:
        Relative increase of reduction time over ``fcred`` per added core
        (Table II's fored(%) / 100; may exceed 1).
    fred_share:
        Reduction fraction as a share of serial time (Table II fred(%)).
    fcon_share:
        Constant fraction as a share of serial time (Table II fcon(%));
        ``fred_share + fcon_share == 1``.
    growth_alpha:
        Exponent of the measured growth: 1 for kmeans/fuzzy (linear); hop's
        merge grows superlinearly, which the paper attributes to memory
        accesses — modelled as a power law fitted by the instrumentation.
    """

    name: str
    serial_pct: float
    critical_pct: float
    fored_rel: float
    fred_share: float
    fcon_share: float
    growth_alpha: float = 1.0

    def __post_init__(self) -> None:
        check_positive(self.serial_pct, "serial_pct")
        check_positive(self.critical_pct, "critical_pct", allow_zero=True)
        check_positive(self.fored_rel, "fored_rel", allow_zero=True)
        check_fraction(self.fred_share, "fred_share")
        check_fraction(self.fcon_share, "fcon_share")
        if abs(self.fred_share + self.fcon_share - 1.0) > 1e-9:
            raise ValueError(
                f"fred_share + fcon_share must be 1, got "
                f"{self.fred_share} + {self.fcon_share}"
            )
        check_positive(self.growth_alpha, "growth_alpha")

    @property
    def s(self) -> float:
        """Serial fraction of single-core execution time (absolute)."""
        return self.serial_pct / 100.0

    @property
    def f(self) -> float:
        """Parallel fraction."""
        return 1.0 - self.s

    @property
    def fcon(self) -> float:
        """Constant serial fraction (absolute)."""
        return self.s * self.fcon_share

    @property
    def fred(self) -> float:
        """Reduction fraction (absolute). Equals fcred at one core."""
        return self.s * self.fred_share

    @property
    def fcred(self) -> float:
        """Constant reduction fraction (absolute). In the measured form the
        entire single-core reduction time is the constant baseline."""
        return self.fred

    def to_design_params(self) -> AppParams:
        """Project onto the design-space form for use with Eqs 4–7.

        The growing share of the reduction is ``fored_rel`` clipped to 1:
        in the design-space form at most the whole reduction can grow, and
        the measured relative slopes >= 1 (all three applications) mean the
        whole reduction is effectively overhead-dominated at scale.
        """
        return AppParams(
            f=self.f,
            fcon_share=self.fcon_share,
            fored_share=min(self.fored_rel, 1.0),
            name=self.name,
        )


#: Table II of the paper — measured parameters for the MineBench clustering
#: applications (default datasets, SESC simulation infrastructure).
TABLE2: Mapping[str, MeasuredParams] = {
    "kmeans": MeasuredParams(
        name="kmeans", serial_pct=0.015, critical_pct=0.004,
        fored_rel=0.72, fred_share=0.43, fcon_share=0.57,
    ),
    "fuzzy": MeasuredParams(
        name="fuzzy", serial_pct=0.002, critical_pct=0.0,
        fored_rel=0.82, fred_share=0.35, fcon_share=0.65,
    ),
    "hop": MeasuredParams(
        name="hop", serial_pct=0.100, critical_pct=0.0003,
        fored_rel=1.55, fred_share=0.12, fcon_share=0.88,
        growth_alpha=1.25,  # superlinear merge growth (Section V.A)
    ),
}

#: Critical-section percentages (Table II column 3), kept separately for the
#: Table II report.
TABLE2_CRITICAL_SECTION: Mapping[str, float] = {
    "kmeans": 0.004,
    "fuzzy": 0.0,
    "hop": 0.0003,
}


@dataclass(frozen=True)
class DatasetRecord:
    """A row of Table IV: dataset attributes and the measured fractions."""

    label: str
    n_points: int
    n_dims: int
    n_centers: int
    f: float
    fred_share: float
    fcon_share: float
    note: str = ""


#: Table IV of the paper — dataset-sensitivity study.
TABLE4: tuple[DatasetRecord, ...] = (
    DatasetRecord("kmeans-base",   17695,  9,  8, 0.99985, 0.43, 0.57),
    DatasetRecord("kmeans-dim",    17695, 18,  8, 0.99984, 0.41, 0.59),
    DatasetRecord("kmeans-point",  35390, 18,  8, 0.99992, 0.49, 0.51),
    DatasetRecord("kmeans-center", 17695, 18, 32, 0.99984, 0.41, 0.59),
    DatasetRecord("fuzzy-base",    17695,  9,  8, 0.99998, 0.65, 0.35),
    DatasetRecord("fuzzy-dim",     17695, 18,  8, 0.99997, 0.61, 0.39),
    DatasetRecord("fuzzy-point",   35390, 18,  8, 0.99999, 0.59, 0.41),
    DatasetRecord("fuzzy-center",  17695, 18, 32, 0.99998, 0.61, 0.39),
    DatasetRecord("hop-default",   61440,  3,  0, 0.9990, 0.12, 0.88, note="64p default"),
    DatasetRecord("hop-med",      491520,  3,  0, 0.9980, 0.15, 0.85, note="128p medium"),
)
