"""Unit tests for routing and the networkx cross-verification."""

import numpy as np
import pytest

from repro.noc.routing import hop_matrix, path_link_loads, xy_route
from repro.noc.topology import FullyConnected, Hypercube, Mesh2D, Ring, Topology, Torus2D


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


class TestXYRoute:
    def test_path_endpoints(self):
        m = Mesh2D(16)
        path = xy_route(m, 0, 15)
        assert path[0] == 0 and path[-1] == 15

    def test_path_length_is_manhattan_distance(self):
        m = Mesh2D(16)
        for s in range(16):
            for d in range(16):
                assert len(xy_route(m, s, d)) - 1 == m.hop_distance(s, d)

    def test_path_steps_are_adjacent(self):
        m = Mesh2D(12)
        path = xy_route(m, 0, 11)
        for u, v in zip(path, path[1:]):
            assert m.hop_distance(u, v) == 1

    def test_x_before_y(self):
        m = Mesh2D(16)  # 4x4
        path = xy_route(m, 0, 15)
        rows = [m.coords(n)[0] for n in path]
        # row changes only after all column movement is done
        first_row_change = next(i for i, r in enumerate(rows) if r != rows[0])
        assert all(r == rows[0] for r in rows[:first_row_change])

    def test_self_route(self):
        m = Mesh2D(9)
        assert xy_route(m, 4, 4) == [4]


class TestHopMatrix:
    def test_symmetric_zero_diagonal(self):
        h = hop_matrix(Mesh2D(9))
        assert np.all(h == h.T)
        assert np.all(np.diag(h) == 0)

    def test_mean_matches_average_hops(self):
        m = Torus2D(16)
        h = hop_matrix(m)
        n = m.n_nodes
        mean = h.sum() / (n * (n - 1))
        assert mean == pytest.approx(m.average_hops())


class TestNetworkxVerification:
    @pytest.mark.parametrize("topo_cls,size", [
        (Mesh2D, 16), (Mesh2D, 12), (Mesh2D, 7),
        (Torus2D, 16), (Torus2D, 9), (Torus2D, 4),
        (Ring, 9), (Ring, 2),
        (FullyConnected, 8),
        (Hypercube, 16), (Hypercube, 2),
    ])
    def test_closed_form_distances_match_bfs(self, topo_cls, size):
        assert verify_against_networkx(topo_cls(size))


class TestLinkLoads:
    def test_gather_to_master_loads_links_near_master(self):
        m = Mesh2D(16)
        pairs = [(src, 0) for src in range(1, 16)]
        loads = path_link_loads(m, pairs)
        # the link into the master carries the most traffic
        max_link = max(loads, key=loads.get)
        assert 0 in max_link

    def test_total_load_equals_total_hops(self):
        m = Mesh2D(9)
        pairs = [(1, 5), (8, 0)]
        loads = path_link_loads(m, pairs)
        assert sum(loads.values()) == sum(m.hop_distance(s, d) for s, d in pairs)

    def test_loads_match_walked_routes_across_chunks(self):
        """An all-to-all on 81 nodes (6,480 pairs) is routed in several
        steps; the counts equal walking every XY route."""
        from collections import Counter

        m = Mesh2D(81)
        pairs = [(s, d) for s in range(81) for d in range(81) if s != d]
        walked = Counter()
        for s, d in pairs:
            path = xy_route(m, s, d)
            walked.update((min(u, v), max(u, v)) for u, v in zip(path, path[1:]))
        assert path_link_loads(m, pairs) == dict(walked)
