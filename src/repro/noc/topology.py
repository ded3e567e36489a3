"""On-chip interconnect topologies.

Each topology knows its link count, its average hop distance, and how to
enumerate node adjacency (for exhaustive verification against networkx and
for the simulator's interconnect timing model).

The paper's Eq 8 analysis needs two quantities per topology:

* ``link_operations()`` — how many link transfers the network can carry per
  unit time (the paper: ``4·sqrt(nc)·(sqrt(nc)-1)`` for a mesh with
  bidirectional links, i.e. 2 directions × 2·sqrt(nc)·(sqrt(nc)−1) links);
* ``average_hops()`` — the mean shortest-path distance between distinct
  nodes (the paper approximates ``sqrt(nc) - 1`` for the mesh).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.util.validation import check_positive_int

__all__ = [
    "Topology",
    "Mesh2D",
    "Torus2D",
    "Ring",
    "Hypercube",
    "FullyConnected",
    "resolve_topology",
]


class Topology(ABC):
    """A fixed-size on-chip network of ``n_nodes`` cores."""

    def __init__(self, n_nodes: int):
        self.n_nodes = check_positive_int(n_nodes, "n_nodes")

    # ── structure ─────────────────────────────────────────────────────────
    @abstractmethod
    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected link exactly once as ``(u, v)`` with u < v."""

    @abstractmethod
    def hop_distance(self, src: int, dst: int) -> int:
        """Shortest-path hop count between two nodes (closed form)."""

    # ── aggregate quantities used by Eq 8 ────────────────────────────────
    def link_count(self) -> int:
        """Number of undirected links."""
        return sum(1 for _ in self.edges())

    def link_operations(self) -> int:
        """Link transfers the network can carry per unit time, assuming
        bidirectional links (two simultaneous transfers per link)."""
        return 2 * self.link_count()

    def total_hops(self) -> int:
        """Sum of hop distances over all ordered node pairs (exact).

        The generic form loops over :meth:`hop_distance`; subclasses
        override it with an exact integer closed form (each verified
        against this loop in the tests).
        """
        n = self.n_nodes
        total = 0
        for s in range(n):
            for d in range(n):
                if s != d:
                    total += self.hop_distance(s, d)
        return total

    def average_hops(self) -> float:
        """Mean hop distance over ordered pairs of distinct nodes,
        ``total_hops() / (n·(n−1))``."""
        n = self.n_nodes
        if n == 1:
            return 0.0
        return self.total_hops() / (n * (n - 1))

    def validate_node(self, node: int) -> int:
        """Bounds-check a node id."""
        if not (0 <= node < self.n_nodes):
            raise ValueError(f"node {node} out of range [0, {self.n_nodes})")
        return node

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n_nodes={self.n_nodes})"


def _line_pair_hops(k: int) -> int:
    """Σ |a − b| over ordered pairs of positions on a k-node line."""
    d = np.arange(1, k, dtype=np.int64)
    return int((2 * (k - d) * d).sum())


def _cycle_pair_hops(k: int) -> int:
    """Σ min(|a − b|, k − |a − b|) over ordered pairs on a k-node cycle:
    every node sees each offset d once, at distance min(d, k − d)."""
    d = np.arange(k, dtype=np.int64)
    return k * int(np.minimum(d, k - d).sum())


@dataclass(frozen=True)
class _GridShape:
    """Rows × cols factorisation of a node count, as square as possible."""

    rows: int
    cols: int

    @staticmethod
    def for_nodes(n: int) -> "_GridShape":
        side = int(math.isqrt(n))
        while side > 1 and n % side != 0:
            side -= 1
        return _GridShape(rows=side, cols=n // side)


class Mesh2D(Topology):
    """A 2D mesh, the paper's assumed topology ("the most commonly used
    topology in many core CMP studies").

    Nodes are laid out row-major on a ``rows × cols`` grid (as square as the
    node count allows; a perfect square when ``n_nodes`` is one, which is the
    case Eq 8 analyses).  Links connect 4-neighbours; routing is XY
    (dimension-ordered), which on a mesh realises the Manhattan shortest
    path.
    """

    def __init__(self, n_nodes: int):
        super().__init__(n_nodes)
        self.shape = _GridShape.for_nodes(self.n_nodes)

    @property
    def rows(self) -> int:
        return self.shape.rows

    @property
    def cols(self) -> int:
        return self.shape.cols

    def coords(self, node: int) -> tuple[int, int]:
        """Grid coordinates (row, col) of a node id."""
        self.validate_node(node)
        return divmod(node, self.cols)

    def node_at(self, row: int, col: int) -> int:
        """Node id at grid coordinates."""
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ValueError(f"coordinates ({row}, {col}) outside {self.rows}x{self.cols} grid")
        return row * self.cols + col

    def edges(self) -> Iterator[tuple[int, int]]:
        for r in range(self.rows):
            for c in range(self.cols):
                u = self.node_at(r, c)
                if c + 1 < self.cols:
                    yield (u, self.node_at(r, c + 1))
                if r + 1 < self.rows:
                    yield (u, self.node_at(r + 1, c))

    def link_count(self) -> int:
        # paper: 2·sqrt(nc)·(sqrt(nc)-1) for a square mesh; generally
        # rows·(cols-1) + cols·(rows-1).
        return self.rows * (self.cols - 1) + self.cols * (self.rows - 1)

    def hop_distance(self, src: int, dst: int) -> int:
        (r1, c1), (r2, c2) = self.coords(src), self.coords(dst)
        return abs(r1 - r2) + abs(c1 - c2)

    def total_hops(self) -> int:
        # every row pair recurs for cols² node pairs, every column pair
        # for rows² node pairs
        return (self.cols**2 * _line_pair_hops(self.rows)
                + self.rows**2 * _line_pair_hops(self.cols))


class Torus2D(Topology):
    """A 2D torus: mesh plus wraparound links (halves average distance)."""

    def __init__(self, n_nodes: int):
        super().__init__(n_nodes)
        self.shape = _GridShape.for_nodes(self.n_nodes)

    @property
    def rows(self) -> int:
        return self.shape.rows

    @property
    def cols(self) -> int:
        return self.shape.cols

    def coords(self, node: int) -> tuple[int, int]:
        self.validate_node(node)
        return divmod(node, self.cols)

    def edges(self) -> Iterator[tuple[int, int]]:
        # collect into a set: on 2-wide dimensions the wraparound link
        # coincides with the mesh link and must not be double-counted.
        seen: set[tuple[int, int]] = set()
        for r in range(self.rows):
            for c in range(self.cols):
                u = r * self.cols + c
                if self.cols > 1:
                    v = r * self.cols + (c + 1) % self.cols
                    seen.add((min(u, v), max(u, v)))
                if self.rows > 1:
                    v = ((r + 1) % self.rows) * self.cols + c
                    seen.add((min(u, v), max(u, v)))
        yield from sorted(seen)

    def hop_distance(self, src: int, dst: int) -> int:
        (r1, c1), (r2, c2) = self.coords(src), self.coords(dst)
        dr = abs(r1 - r2)
        dc = abs(c1 - c2)
        return min(dr, self.rows - dr) + min(dc, self.cols - dc)

    def total_hops(self) -> int:
        return (self.cols**2 * _cycle_pair_hops(self.rows)
                + self.rows**2 * _cycle_pair_hops(self.cols))


class Ring(Topology):
    """A bidirectional ring (cheap links, long average distance ~ n/4)."""

    def edges(self) -> Iterator[tuple[int, int]]:
        n = self.n_nodes
        if n == 1:
            return
        if n == 2:
            yield (0, 1)
            return
        for u in range(n):
            v = (u + 1) % n
            yield tuple(sorted((u, v)))  # type: ignore[misc]

    def hop_distance(self, src: int, dst: int) -> int:
        self.validate_node(src)
        self.validate_node(dst)
        d = abs(src - dst)
        return min(d, self.n_nodes - d)

    def total_hops(self) -> int:
        return _cycle_pair_hops(self.n_nodes)


class Hypercube(Topology):
    """A binary hypercube: node count must be a power of two.

    Node ids are bit strings; links connect ids differing in one bit, so
    the hop distance is the Hamming distance — log-diameter with
    ``(n/2)·log2 n`` links, the classic middle ground between a mesh and
    a crossbar.
    """

    def __init__(self, n_nodes: int):
        super().__init__(n_nodes)
        if n_nodes & (n_nodes - 1) != 0:
            raise ValueError(f"hypercube needs a power-of-two node count, got {n_nodes}")
        self.dimensions = n_nodes.bit_length() - 1

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n_nodes):
            for d in range(self.dimensions):
                v = u ^ (1 << d)
                if u < v:
                    yield (u, v)

    def link_count(self) -> int:
        return (self.n_nodes // 2) * self.dimensions if self.dimensions else 0

    def hop_distance(self, src: int, dst: int) -> int:
        self.validate_node(src)
        self.validate_node(dst)
        return (src ^ dst).bit_count()

    def average_hops(self) -> float:
        # E[Hamming distance] over distinct pairs: d·(n/2)/(n−1) exactly
        n, d = self.n_nodes, self.dimensions
        if n == 1:
            return 0.0
        return d * (n / 2) / (n - 1)


class FullyConnected(Topology):
    """A crossbar / full point-to-point network: one hop everywhere.

    Unbuildable at scale (O(n²) links) but the useful upper bound: with it,
    growcomm stays constant and the communication extension collapses back
    to the computation-only model.
    """

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n_nodes):
            for v in range(u + 1, self.n_nodes):
                yield (u, v)

    def link_count(self) -> int:
        return self.n_nodes * (self.n_nodes - 1) // 2

    def hop_distance(self, src: int, dst: int) -> int:
        self.validate_node(src)
        self.validate_node(dst)
        return 0 if src == dst else 1

    def total_hops(self) -> int:
        return self.n_nodes * (self.n_nodes - 1)


_NAMED = {
    "mesh": Mesh2D,
    "mesh2d": Mesh2D,
    "torus": Torus2D,
    "ring": Ring,
    "hypercube": Hypercube,
    "crossbar": FullyConnected,
    "full": FullyConnected,
}


def resolve_topology(spec: "str | type[Topology]", n_nodes: int) -> Topology:
    """Build a topology from a name ('mesh', 'torus', 'ring', 'crossbar')
    or a Topology subclass."""
    if isinstance(spec, str):
        key = spec.lower()
        if key not in _NAMED:
            raise ValueError(f"unknown topology {spec!r}; expected one of {sorted(_NAMED)}")
        return _NAMED[key](n_nodes)
    if isinstance(spec, type) and issubclass(spec, Topology):
        return spec(n_nodes)
    raise TypeError(f"spec must be a name or Topology subclass, got {spec!r}")
