"""Inverse questions: requirements on an application, given a target.

The forward models answer "given the application, what does the chip
deliver?"  Architects and library authors often need the inverse: how
large a merging phase can I *afford* before a target speedup at a given
core count becomes unreachable?  ``max_affordable_overhead`` answers it —
the reduction budget a parallel-algorithm author must stay within — as
an exact, closed-form inversion of the measured-form model
(:mod:`repro.core.measured`).
"""

from __future__ import annotations

from repro.util.validation import check_fraction, check_positive, check_positive_int

__all__ = ["max_affordable_overhead"]


def max_affordable_overhead(
    f: float,
    fcon_share: float,
    p: int,
    target_speedup: float,
    fred_share: "float | None" = None,
) -> float:
    """The largest ``fored_rel`` that still reaches ``target_speedup`` on
    ``p`` cores (linear growth), or 0 if even a flat merge falls short.

    With ``S(p) = fcon + fcred(1 + o(p−1))`` and speedup = 1/(S(p)+f/p),
    the bound solves exactly::

        o* = (1/target − f/p − s) / (fcred · (p − 1))

    ``fred_share`` defaults to the complement of ``fcon_share``.
    """
    check_fraction(f, "f", inclusive=False)
    check_fraction(fcon_share, "fcon_share")
    check_positive_int(p, "p", minimum=2)
    check_positive(target_speedup, "target_speedup")
    share = (1.0 - fcon_share) if fred_share is None else check_fraction(
        fred_share, "fred_share"
    )
    s = 1.0 - f
    fcred = s * share
    if fcred == 0:
        raise ValueError("application has no reduction (fred_share = 0)")
    slack = 1.0 / target_speedup - f / p - s
    if slack < 0:
        return 0.0
    return slack / (fcred * (p - 1))
