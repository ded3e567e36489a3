"""Exact k-nearest neighbours of a point set among itself, numpy only.

:func:`knn` answers the query ``cKDTree(points).query(points, k)`` without
scipy: the same neighbour indices and bit-identical distances.

Points are binned into a uniform grid of cubic cells.  A query's
candidates are the points in the 3×3×3 block of cells around its own
(3^d in d dimensions).  Every point outside that block is at least as far
away as the nearest block face, so the k nearest candidates are the k
nearest points whenever the k-th candidate distance is strictly inside
that margin.  The margin is shrunk by a small slack that covers the
rounding of cell indices and distances.  Rows that fail the test are
answered by chunked brute force over all points, so the result is exact
by construction.

The arithmetic follows cKDTree's: a squared distance is the sum of
``(x - y)**2`` in axis order, neighbours are ordered by (squared
distance, index), and ``sqrt`` is taken last.  Equal distances go to the
lower index; cKDTree leaves their order unspecified.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.util.validation import check_positive_int

__all__ = ["knn"]

#: relative slack on the exactness test (far above the few ulps of
#: rounding in a squared distance or a cell face)
_SLACK = 1e-9
#: distance-matrix entries computed at once
_CHUNK = 1 << 20


def knn(points, k: int) -> "tuple[np.ndarray, np.ndarray]":
    """The ``k`` nearest points to each point, itself included.

    Returns ``(distances, indices)``, both of shape ``(n, k)``, each row
    ordered by increasing distance (ties by index).
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] == 0:
        raise ValueError(f"points must be a non-empty (n, d) array, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    check_positive_int(k, "k")
    n = pts.shape[0]
    if k > n:
        raise ValueError(f"k {k} exceeds the number of points {n}")

    lo = pts.min(axis=0)
    span = pts.max(axis=0) - lo
    h = _cell_size(span, n, k)
    shape = np.maximum(1, np.ceil(span / h)).astype(np.int64)
    cell = np.minimum(((pts - lo) / h).astype(np.int64), shape - 1)
    # distance to the nearest face of the block beyond which points exist
    low = np.where(cell >= 2, pts - (lo + (cell - 1) * h), np.inf)
    high = np.where(cell + 2 < shape, (lo + (cell + 2) * h) - pts, np.inf)
    tolerance = _SLACK * (np.abs(pts).max() + span.max() + h)
    margin = np.minimum(low, high).min(axis=1) - tolerance

    dist2 = np.empty((n, k))
    idx = np.empty((n, k), dtype=np.intp)
    unresolved = []
    for queries, cands in _blocks(cell, shape):
        if cands.size < k:
            unresolved.append(queries)
            continue
        cand_pts = pts[cands]
        for rows in _chunks(queries, cands.size):
            s = _sqdist(pts[rows], cand_pts)
            pos = _smallest(s, k)
            near = np.take_along_axis(s, pos, axis=1)
            exact = np.sqrt(near[:, -1]) * (1 + _SLACK) < margin[rows]
            dist2[rows[exact]] = near[exact]
            idx[rows[exact]] = cands[pos[exact]]
            unresolved.append(rows[~exact])

    for rows in _chunks(np.concatenate(unresolved), n):
        s = _sqdist(pts[rows], pts)
        pos = _smallest(s, k)
        dist2[rows] = np.take_along_axis(s, pos, axis=1)
        idx[rows] = pos
    return np.sqrt(dist2), idx


def _cell_size(span: np.ndarray, n: int, k: int) -> float:
    """Cell edge for about ``k`` points per cell over the bounding box,
    coarsened until the grid has at most ``n`` cells."""
    live = span[span > 0]
    if live.size == 0:
        return 1.0
    h = max(float(np.prod(live) * k / n) ** (1.0 / live.size), float(live.max()) / n)
    while np.prod(np.ceil(live / h)) > n:
        h *= 1.25
    return h


def _blocks(cell: np.ndarray, shape: np.ndarray):
    """``(queries, candidates)`` per occupied cell: the points in it and
    the points in its block of neighbouring cells, both in index order."""
    dims = tuple(shape)
    lin = np.ravel_multi_index(tuple(cell.T), dims)
    order = np.argsort(lin, kind="stable")
    bounds = np.searchsorted(lin[order], np.arange(int(np.prod(shape)) + 1))
    occupied = np.flatnonzero(np.diff(bounds))
    coords = np.stack(np.unravel_index(occupied, dims), axis=1)
    # along the last axis a block row is one contiguous run of cells
    last_lo = np.maximum(coords[:, -1] - 1, 0)
    last_hi = np.minimum(coords[:, -1] + 1, shape[-1] - 1)
    starts, stops = [], []
    for offset in itertools.product((-1, 0, 1), repeat=len(dims) - 1):
        lead = coords[:, :-1] + np.array(offset, dtype=np.int64)
        inside = np.all((lead >= 0) & (lead < shape[:-1]), axis=1)
        lead[~inside] = 0
        first = np.ravel_multi_index((*lead.T, last_lo), dims)
        last = np.ravel_multi_index((*lead.T, last_hi), dims)
        starts.append(np.where(inside, bounds[first], 0))
        stops.append(np.where(inside, bounds[last + 1], 0))
    starts = np.stack(starts, axis=1).tolist()
    stops = np.stack(stops, axis=1).tolist()
    for i, c in enumerate(occupied.tolist()):
        cands = np.concatenate([order[a:b] for a, b in zip(starts[i], stops[i])])
        cands.sort()
        yield order[bounds[c]:bounds[c + 1]], cands


def _chunks(rows: np.ndarray, width: int):
    """``rows`` in slices whose distance matrices hold about ``_CHUNK`` entries."""
    step = max(1, _CHUNK // width)
    for i in range(0, rows.size, step):
        yield rows[i:i + step]


def _sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of ``a`` and ``b``, summed in
    axis order."""
    diff = a[:, None, 0] - b[None, :, 0]
    s = diff * diff
    for axis in range(1, a.shape[1]):
        diff = a[:, None, axis] - b[None, :, axis]
        s += diff * diff
    return s


def _smallest(s: np.ndarray, k: int) -> np.ndarray:
    """Column positions of each row's ``k`` smallest entries, ordered by
    (value, column)."""
    if s.shape[1] > k:
        part = np.argpartition(s, k - 1, axis=1)[:, :k]
        kth = np.take_along_axis(s, part[:, -1:], axis=1)
        # a tie at the k-th value: argpartition may have kept any of them
        tied = np.flatnonzero(np.count_nonzero(s <= kth, axis=1) > k)
        if tied.size:
            part[tied] = np.argsort(s[tied], axis=1, kind="stable")[:, :k]
        part.sort(axis=1)
    else:
        part = np.broadcast_to(np.arange(s.shape[1]), s.shape)
    order = np.argsort(np.take_along_axis(s, part, axis=1), axis=1, kind="stable")
    return np.take_along_axis(part, order, axis=1)
