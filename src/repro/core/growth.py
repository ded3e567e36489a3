"""Reduction-overhead growth functions ``grow(nc)``.

The paper's key observation is that the merging (reduction) phase contains a
component whose cost *grows with the number of cores*.  The growth shape
depends on how the reduction is implemented:

* **linear** — the master thread accumulates one partial result per thread
  (MineBench's implementation; Algorithm 1 in the paper): cost ∝ nc.
* **log** — a binary combining tree: cost ∝ log2(nc).
* **parallel** — privatised reduction where each of the nc threads combines
  x/nc elements: the *computation* does not grow at all (x/nc · nc = x);
  only communication grows (the Eq 6–8 laws at the bottom of this module).
* **superlinear** — observed for `hop`, whose merging phase is memory-bound
  and grows faster than linearly (modelled as nc^alpha with alpha > 1).

Conventions (validated against the paper's numeric anchors; see DESIGN.md):
``grow`` takes the total number of cores participating in the reduction,
``nc = n/r`` for symmetric CMPs and ``nc = (n - rl)/r + 1`` for asymmetric
CMPs (the large core participates).  ``grow_linear(nc) = nc`` exactly (not
nc−1), which reproduces Fig 4(c)'s 104.5 peak to three significant digits.

The communication-aware model (Section V.E, Eqs 6–8) splits the reduction
into a computation and a communication half, each with its own law of the
same type: ``growcomp`` is the *extra* computation relative to one core
(:data:`PARALLEL_COMP`, :data:`LINEAR_COMP`, :data:`LOG_COMP`) and
``growcomm`` the network's (:data:`MESH_COMM`, Eq 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.util.validation import check_positive

__all__ = [
    "GrowthFunction",
    "LinearGrowth",
    "LogGrowth",
    "ParallelGrowth",
    "PolynomialGrowth",
    "LINEAR",
    "LOG",
    "PARALLEL",
    "resolve_growth",
    "mesh_growcomm",
    "MESH_COMM",
    "PARALLEL_COMP",
    "LINEAR_COMP",
    "LOG_COMP",
]


@dataclass(frozen=True)
class GrowthFunction:
    """A reduction-cost growth law ``grow(nc)``.

    Attributes
    ----------
    name:
        Identifier used in reports ("Linear" / "Log" in the paper's legends).
    fn:
        Vectorised callable mapping participating-core count to the growth
        multiplier applied to the ``fored`` fraction.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, nc: "float | np.ndarray") -> "float | np.ndarray":
        arr = np.asarray(nc, dtype=np.float64)
        if np.any(arr < 1):
            raise ValueError(f"core count nc must be >= 1, got {nc!r}")
        out = self.fn(arr)
        if arr.ndim == 0:
            return float(out)
        return out


def LinearGrowth() -> GrowthFunction:
    """Serial accumulation: the master combines one partial per core.

    ``grow(nc) = nc`` — the overhead fraction is multiplied by the core
    count, matching Algorithm 1 (kmeans merging loop over nthreads).
    """
    return GrowthFunction("Linear", lambda nc: nc)


def LogGrowth() -> GrowthFunction:
    """Tree reduction in ``ceil(log2(nc))`` combining steps.

    ``grow(nc) = log2(nc)`` for nc > 1; defined as 1 at nc = 1 so a
    single-core run charges exactly the measured single-core reduction time
    (the paper normalises all fractions at one core).
    """
    return GrowthFunction("Log", lambda nc: np.maximum(np.log2(nc), 1.0))


def ParallelGrowth() -> GrowthFunction:
    """Privatised parallel reduction: computation does not scale with cores.

    Each of the nc threads reduces x/nc elements, so total computation stays
    x: ``grow(nc) = 1``.  The growing *communication* cost of exchanging the
    privatised partials is modelled separately (Eq 6–8 of the paper).
    """
    return GrowthFunction("Parallel", lambda nc: np.ones_like(np.asarray(nc, dtype=np.float64)))


def PolynomialGrowth(alpha: float) -> GrowthFunction:
    """Power-law growth ``grow(nc) = nc ** alpha``.

    ``alpha = 1`` recovers linear growth; ``alpha > 1`` models the
    superlinear behaviour the paper measured for hop (fored = 155%, i.e. the
    memory-bound merge grows faster than the thread count).
    """
    check_positive(alpha, "alpha")
    a = float(alpha)
    return GrowthFunction(f"Poly({a:g})", lambda nc: np.power(nc, a))


#: Module-level instances for the three canonical shapes.
LINEAR = LinearGrowth()
LOG = LogGrowth()
PARALLEL = ParallelGrowth()

_NAMED: dict[str, GrowthFunction] = {
    "linear": LINEAR,
    "log": LOG,
    "parallel": PARALLEL,
}


def resolve_growth(spec: "str | GrowthFunction | None") -> GrowthFunction:
    """Resolve a growth spec: name, instance, or None (paper default: linear).

    Strings of the form ``"poly:<alpha>"`` build a power-law growth.
    """
    if spec is None:
        return LINEAR
    if isinstance(spec, GrowthFunction):
        return spec
    key = spec.lower()
    if key in _NAMED:
        return _NAMED[key]
    if key.startswith("poly:"):
        return PolynomialGrowth(float(key.split(":", 1)[1]))
    raise ValueError(
        f"unknown growth function {spec!r}; expected one of {sorted(_NAMED)} or 'poly:<alpha>'"
    )


# ── Eqs 6–8: communication and computation growth of a split reduction ──


def mesh_growcomm(nc: np.ndarray) -> np.ndarray:
    """Eq 8's asymptotic form: ``sqrt(nc) / 2`` (zero extra cost at nc=1).

    For a parallel reduction of ``x`` elements the 2D mesh carries
    ``2(nc-1)·x`` messages over ``sqrt(nc) - 1`` hops on average, with
    ``4·sqrt(nc)(sqrt(nc) - 1)`` link-transfers per unit time, which
    simplifies to ≈ ``sqrt(nc) / 2`` for nc > 1.  At nc = 1 there is no
    communication at all, so the growth is 0 (the factor ``1 + growcomm``
    then charges exactly the single-core communication fraction).
    """
    arr = np.asarray(nc, dtype=np.float64)
    return np.where(arr > 1.0, np.sqrt(arr) / 2.0, 0.0)


#: The paper's 2D-mesh communication growth (Eq 8).
MESH_COMM = GrowthFunction("mesh2d", mesh_growcomm)
#: Privatised parallel reduction: total computation stays x (no extra work).
PARALLEL_COMP = GrowthFunction("parallel", lambda nc: np.zeros_like(np.asarray(nc, dtype=float)))
#: Serial accumulation: nc partials instead of 1 → extra work nc - 1.
LINEAR_COMP = GrowthFunction("linear", lambda nc: np.asarray(nc, dtype=float) - 1.0)
#: Tree reduction: log2(nc) combining rounds of extra work.
LOG_COMP = GrowthFunction("log", lambda nc: np.maximum(np.log2(np.asarray(nc, dtype=float)), 0.0))
