"""Communication-cost derivations per topology (the Eq 8 generalisation).

The paper derives the mesh communication growth as::

    growcomm(nc) = total_link_transfers / link_operations_per_unit_time
                 = [ 2·(nc−1)·x · avg_hops ] / [ 2 · 2·sqrt(nc)(sqrt(nc)−1) ]
                 ≈ sqrt(nc) / 2            (taking avg_hops ≈ sqrt(nc) − 1)

where a parallel reduction of ``x`` privatised elements needs each core to
send and receive partials from every other core (``2·(nc−1)·x`` messages).
This module computes the same ratio *from the topology object* — link count
and average hops are derived, not assumed — so the approximation in Eq 8 can
be quantified, and the model extended to other networks.
"""

from __future__ import annotations

import numpy as np

from repro.core.growth import GrowthFunction
from repro.noc.topology import Topology, resolve_topology

__all__ = [
    "reduction_comm_operations",
    "growcomm_for",
    "topology_growcomm",
]


def reduction_comm_operations(nc: int, x: int = 1, broadcast_back: bool = True) -> int:
    """Message count of a privatised parallel reduction (Section V.E).

    Each of the ``nc`` cores sends its subset of ``x`` partial elements to
    every other core ((nc−1)·x messages); with ``broadcast_back`` (the
    paper's "common case") the combined results also return to every core,
    doubling the traffic to ``2·(nc−1)·x``.
    """
    if nc < 1:
        raise ValueError(f"nc must be >= 1, got {nc}")
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    ops = (nc - 1) * x
    return 2 * ops if broadcast_back else ops


def growcomm_for(topology: Topology, x: int = 1, broadcast_back: bool = True) -> float:
    """The exact communication growth for a concrete topology instance.

    ``(messages · average_hops) / link_operations`` — the time (in units of
    a single-core element-transfer) the network needs to move the reduction
    traffic, assuming perfectly load-balanced links (the paper's idealised
    premise; it concedes the result "still provides an optimistic
    estimate").

    Note ``x`` cancels for the mesh in the paper's simplification but is
    kept here because non-uniform topologies need not be linear in it once
    link contention is considered.
    """
    nc = topology.n_nodes
    if nc == 1:
        return 0.0
    messages = reduction_comm_operations(nc, x, broadcast_back)
    total_transfers = messages * topology.average_hops()
    return total_transfers / topology.link_operations()


def topology_growcomm(
    name: str, x: int = 1, broadcast_back: bool = True, name_suffix: str = ""
) -> GrowthFunction:
    """Build a :class:`~repro.core.growth.GrowthFunction` whose values
    come from exact per-topology computation.

    The returned growth law evaluates the topology at each requested core
    count (rounded to the nearest integer ≥ 1) — plug it into
    :func:`repro.core.communication.speedup_symmetric_comm` to run Fig 7
    with torus/ring/crossbar interconnects (ablation benchmarks).
    """

    cache: dict[int, float] = {}

    def fn(nc_arr: np.ndarray) -> np.ndarray:
        arr = np.atleast_1d(np.asarray(nc_arr, dtype=np.float64))
        out = np.empty_like(arr)
        for i, v in enumerate(arr):
            k = max(1, int(round(float(v))))
            if k not in cache:
                cache[k] = growcomm_for(resolve_topology(name, k), x, broadcast_back)
            out[i] = cache[k]
        return out.reshape(np.asarray(nc_arr, dtype=np.float64).shape)

    label = f"{name}{name_suffix}" if name_suffix else name
    return GrowthFunction(label, fn)
