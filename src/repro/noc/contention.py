"""Link-contention refinement of the Eq 8 communication model.

Eq 8 divides total traffic by the network's aggregate link capacity —
implicitly assuming the reduction's messages spread evenly over every
link.  Real gather/all-to-all patterns do not: a serial reduction funnels
every partial into the master tile, saturating the links around it while
the rest of the mesh idles.

This module computes, for a concrete mesh and traffic pattern, the *exact*
per-link loads under XY routing and derives the bottleneck-limited
communication time: ``max_link_load`` transfers must cross the hottest
link serially, so the pattern cannot complete faster than that.  The ratio
``bottleneck_time / uniform_time`` quantifies how optimistic Eq 8 is
(the paper itself concedes the model "provides an optimistic estimate").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from repro.core.growth import GrowthFunction
from repro.noc.routing import path_link_loads
from repro.noc.topology import Mesh2D

__all__ = [
    "TrafficAnalysis",
    "gather_pattern",
    "all_to_all_pattern",
    "analyse_pattern",
    "contended_growcomm",
]


@dataclass(frozen=True)
class TrafficAnalysis:
    """Per-link load statistics for one traffic pattern on a mesh.

    All mean-based statistics use the **bidirectional-capacity
    convention**: a mesh of ``total_links`` undirected links offers
    ``2 * total_links`` unit-time transfer slots (one per direction),
    matching Eq 8's aggregate-capacity denominator and
    :meth:`~repro.noc.topology.Mesh2D.link_operations`.  Under this one
    convention ``imbalance == bottleneck_time / uniform_time`` exactly —
    the hottest-link slowdown factor relative to Eq 8's optimistic
    balanced-traffic estimate.
    """

    n_nodes: int
    total_transfers: int
    max_link_load: int
    mean_link_load: float
    busy_links: int
    total_links: int

    @property
    def imbalance(self) -> float:
        """Hottest-link load over the capacity-convention mean (1.0 =
        perfectly balanced; equals ``bottleneck_time / uniform_time``)."""
        if self.mean_link_load == 0:
            return 1.0
        return self.max_link_load / self.mean_link_load

    @property
    def uniform_time(self) -> float:
        """Completion time under Eq 8's balanced-links assumption."""
        if self.total_links == 0:
            return 0.0
        # bidirectional links: two transfers per link per unit time
        return self.total_transfers / (2 * self.total_links)

    @property
    def bottleneck_time(self) -> float:
        """Completion time limited by the hottest link."""
        return float(self.max_link_load)


def _check_multiplier(x: int) -> None:
    """Every pattern sends at least one element per pair; reject ``x < 1``
    here rather than as an empty pattern or a division by zero later."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x!r}")


def gather_pattern(mesh: Mesh2D, master: int = 0, x: int = 1) -> np.ndarray:
    """The serial reduction's traffic: every node sends ``x`` partial
    elements to the master (Algorithm 1's communication side).

    Returns an ``(N, 2)`` int64 array of ``(src, master)`` rows, sources
    ascending, each repeated ``x`` times.
    """
    _check_multiplier(x)
    mesh.validate_node(master)
    srcs = np.arange(mesh.n_nodes, dtype=np.int64)
    srcs = np.repeat(srcs[srcs != master], x)
    return np.column_stack((srcs, np.full_like(srcs, master)))


def all_to_all_pattern(mesh: Mesh2D, x: int = 1) -> np.ndarray:
    """The privatised parallel reduction's traffic: every node sends its
    slice of every partial to the slice owners (Section V.E's
    ``(nc−1)·x`` exchange, here one element per ordered pair when x = 1).

    Returns an ``(N, 2)`` int64 array of ordered ``(src, dst)`` rows with
    ``src != dst``, source-major, each repeated ``x`` times.
    """
    _check_multiplier(x)
    n = mesh.n_nodes
    srcs, k = np.divmod(np.arange(n * (n - 1), dtype=np.int64), max(n - 1, 1))
    k += k >= srcs  # skip the diagonal
    pairs = np.column_stack((srcs, k))
    return pairs if x == 1 else np.repeat(pairs, x, axis=0)


def analyse_pattern(mesh: Mesh2D, pairs: ArrayLike) -> TrafficAnalysis:
    """Route a pattern (any ``(N, 2)`` integer array-like of ``(src, dst)``
    pairs) with XY routing and collect link-load statistics."""
    loads = path_link_loads(mesh, pairs)
    total_links = mesh.link_count()
    if not loads:
        return TrafficAnalysis(
            n_nodes=mesh.n_nodes, total_transfers=0, max_link_load=0,
            mean_link_load=0.0, busy_links=0, total_links=total_links,
        )
    values = np.array(list(loads.values()), dtype=np.int64)
    return TrafficAnalysis(
        n_nodes=mesh.n_nodes,
        total_transfers=int(values.sum()),
        max_link_load=int(values.max()),
        # bidirectional-capacity convention (2 directed slots per
        # undirected link), same denominator as uniform_time — so
        # imbalance == bottleneck_time / uniform_time
        mean_link_load=float(values.sum() / (2 * total_links)),
        busy_links=len(loads),
        total_links=total_links,
    )


def contended_growcomm(pattern: str = "all_to_all", x: int = 1) -> GrowthFunction:
    """A ``growcomm`` :class:`GrowthFunction` priced by the bottleneck link, not aggregate
    capacity.

    ``pattern`` is ``"gather"`` (serial reduction) or ``"all_to_all"``
    (privatised parallel reduction, the Fig 7 case).  The returned growth
    is normalised like Eq 8: communication time per reduction element.
    """
    if pattern not in ("gather", "all_to_all"):
        raise ValueError(
            f"pattern must be 'gather' or 'all_to_all', got {pattern!r}"
        )
    _check_multiplier(x)
    cache: dict[int, float] = {}

    def fn(nc_arr: np.ndarray) -> np.ndarray:
        arr = np.atleast_1d(np.asarray(nc_arr, dtype=np.float64))
        out = np.empty_like(arr)
        for i, v in enumerate(arr):
            k = max(1, int(round(float(v))))
            if k not in cache:
                if k == 1:
                    cache[k] = 0.0
                else:
                    mesh = Mesh2D(k)
                    pairs = (
                        gather_pattern(mesh, 0, x)
                        if pattern == "gather"
                        else all_to_all_pattern(mesh, x)
                    )
                    analysis = analyse_pattern(mesh, pairs)
                    # per-element time: the pattern carries x elements'
                    # worth of traffic per node pair involved
                    cache[k] = analysis.bottleneck_time / x
            out[i] = cache[k]
        return out.reshape(np.asarray(nc_arr, dtype=np.float64).shape)

    return GrowthFunction(f"mesh-contended-{pattern}", fn)
