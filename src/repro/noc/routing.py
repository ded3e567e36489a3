"""Routing over on-chip topologies.

The simulator's interconnect model and the Eq 8 verification both need
per-pair hop counts; this module provides XY (dimension-ordered) routing for
meshes — path enumeration, not just distances — and the per-link loads of
a set of XY-routed transfers.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike

from repro.noc.topology import Mesh2D, Topology

__all__ = ["xy_route", "hop_matrix"]


def xy_route(mesh: Mesh2D, src: int, dst: int) -> list[int]:
    """The XY-routed path from src to dst inclusive of both endpoints.

    Dimension-ordered routing: travel along the row (X) first, then the
    column (Y).  Deadlock-free on meshes; its length is the Manhattan
    distance, i.e. the shortest possible path.
    """
    mesh.validate_node(src)
    mesh.validate_node(dst)
    r1, c1 = mesh.coords(src)
    r2, c2 = mesh.coords(dst)
    path = [src]
    c = c1
    while c != c2:
        c += 1 if c2 > c else -1
        path.append(mesh.node_at(r1, c))
    r = r1
    while r != r2:
        r += 1 if r2 > r else -1
        path.append(mesh.node_at(r, c2))
    return path


def hop_matrix(topology: Topology) -> np.ndarray:
    """Dense matrix of pairwise hop distances (n x n, zeros on diagonal)."""
    n = topology.n_nodes
    out = np.zeros((n, n), dtype=np.int64)
    for s in range(n):
        for d in range(n):
            if s != d:
                out[s, d] = topology.hop_distance(s, d)
    return out


def path_link_loads(mesh: Mesh2D, pairs: ArrayLike) -> dict[tuple[int, int], int]:
    """Count how many of the given (src, dst) transfers cross each link
    under XY routing — used to study reduction-traffic hotspots around the
    master core.

    ``pairs`` is any ``(N, 2)`` integer array-like.  Returns
    ``{(u, v): count}`` with ``u < v`` for every link at least one transfer
    crosses.  Loads are counted with difference arrays rather than by
    walking each :func:`xy_route` path: the X leg covers columns
    ``[min(c1, c2), max(c1, c2))`` of the source row, the Y leg rows
    ``[min(r1, r2), max(r1, r2))`` of the destination column, so each leg
    is a +1/−1 pair whose prefix sum along its axis is the per-link count.
    """
    arr = np.asarray(pairs, dtype=np.int64)
    if arr.size == 0:
        return {}
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"pairs must have shape (N, 2), got {arr.shape}")
    bad = (arr < 0) | (arr >= mesh.n_nodes)
    if bad.any():
        node = int(arr[bad][0])
        raise ValueError(f"node {node} out of range [0, {mesh.n_nodes})")
    rows, cols = mesh.rows, mesh.cols
    # horizontal link (r, c) joins nodes r·cols + c and r·cols + c + 1;
    # vertical link (r, c) joins nodes r·cols + c and (r + 1)·cols + c
    horiz = np.zeros((rows, cols), dtype=np.int64)
    vert = np.zeros((rows, cols), dtype=np.int64)
    for chunk in np.split(arr, range(4096, len(arr), 4096)):  # bounded temporaries
        r1, c1 = np.divmod(chunk[:, 0], cols)
        r2, c2 = np.divmod(chunk[:, 1], cols)
        np.add.at(horiz, (r1, np.minimum(c1, c2)), 1)
        np.add.at(horiz, (r1, np.maximum(c1, c2)), -1)
        np.add.at(vert, (np.minimum(r1, r2), c2), 1)
        np.add.at(vert, (np.maximum(r1, r2), c2), -1)
    horiz = np.cumsum(horiz, axis=1)[:, :-1]
    vert = np.cumsum(vert, axis=0)[:-1, :]

    loads: dict[tuple[int, int], int] = {}
    for r, c in zip(*np.nonzero(horiz)):
        u = int(r) * cols + int(c)
        loads[(u, u + 1)] = int(horiz[r, c])
    for r, c in zip(*np.nonzero(vert)):
        u = int(r) * cols + int(c)
        loads[(u, u + cols)] = int(vert[r, c])
    return loads
