"""Routing over on-chip topologies.

The simulator's interconnect model and the Eq 8 verification both need
per-pair hop counts; this module provides XY (dimension-ordered) routing for
meshes — path enumeration, not just distances — and a networkx-backed
exhaustive checker used by the test suite to prove the closed-form
``hop_distance`` implementations correct.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike

from repro.noc.topology import Mesh2D, Topology, Torus2D

__all__ = ["xy_route", "torus_route", "hop_matrix", "verify_against_networkx"]


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


def torus_route(torus: Torus2D, src: int, dst: int) -> list[int]:
    """Wrap-aware dimension-ordered route on a torus, endpoints inclusive.

    In each dimension the route takes whichever direction is shorter
    (ties go the incrementing way); its length equals
    :meth:`Torus2D.hop_distance`.
    """
    torus.validate_node(src)
    torus.validate_node(dst)
    r1, c1 = torus.coords(src)
    r2, c2 = torus.coords(dst)

    def steps(frm: int, to: int, size: int) -> list[int]:
        if frm == to:
            return []
        fwd = (to - frm) % size
        back = (frm - to) % size
        direction = 1 if fwd <= back else -1
        count = fwd if direction == 1 else back
        out, cur = [], frm
        for _ in range(count):
            cur = (cur + direction) % size
            out.append(cur)
        return out

    path = [src]
    col = c1
    for col in steps(c1, c2, torus.cols):
        path.append(r1 * torus.cols + col)
    col = c2 if c1 != c2 else c1
    for row in steps(r1, r2, torus.rows):
        path.append(row * torus.cols + col)
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


def verify_against_networkx(topology: Topology) -> bool:
    """Cross-check closed-form distances against BFS over the edge list.

    Returns True when every pairwise distance matches; raises
    :class:`AssertionError` naming the first mismatch otherwise.  Used by the
    property tests; requires networkx.
    """
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(topology.n_nodes))
    g.add_edges_from(topology.edges())
    lengths = dict(nx.all_pairs_shortest_path_length(g))
    for s in range(topology.n_nodes):
        for d in range(topology.n_nodes):
            expected = lengths[s][d]
            actual = topology.hop_distance(s, d)
            assert actual == expected, (
                f"{topology!r}: hop_distance({s}, {d}) = {actual}, BFS says {expected}"
            )
    return True


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
    r1, c1 = np.divmod(arr[:, 0], cols)
    r2, c2 = np.divmod(arr[:, 1], cols)

    # horizontal link (r, c) joins nodes r·cols + c and r·cols + c + 1
    horiz = np.zeros((rows, cols), dtype=np.int64)
    np.add.at(horiz, (r1, np.minimum(c1, c2)), 1)
    np.add.at(horiz, (r1, np.maximum(c1, c2)), -1)
    horiz = np.cumsum(horiz, axis=1)[:, :-1]
    # vertical link (r, c) joins nodes r·cols + c and (r + 1)·cols + c
    vert = np.zeros((rows, cols), dtype=np.int64)
    np.add.at(vert, (np.minimum(r1, r2), c2), 1)
    np.add.at(vert, (np.maximum(r1, r2), c2), -1)
    vert = np.cumsum(vert, axis=0)[:-1, :]

    loads: dict[tuple[int, int], int] = {}
    for r, c in zip(*np.nonzero(horiz)):
        u = int(r) * cols + int(c)
        loads[(u, u + 1)] = int(horiz[r, c])
    for r, c in zip(*np.nonzero(vert)):
        u = int(r) * cols + int(c)
        loads[(u, u + cols)] = int(vert[r, c])
    return loads
