"""Exactness of the NoC array kernels against their per-pair oracles.

``path_link_loads`` counts XY-routed link loads with difference arrays;
here it must equal, dict for dict, a count made by walking every
:func:`xy_route` path.  ``total_hops`` closed forms must equal the
``hop_distance`` double loop, and ``average_hops`` must keep the exact
float bits of that loop's ``total / (n·(n−1))``.
"""

import numpy as np
import pytest

from repro.noc.contention import all_to_all_pattern, gather_pattern
from repro.noc.routing import hop_matrix, path_link_loads, xy_route
from repro.noc.topology import FullyConnected, Mesh2D, Ring, Topology, Torus2D

#: node counts whose as-square-as-possible grids are 1×1, 1×7, 1×13,
#: 3×4, 8×16 and 16×16
MESH_SIZES = {1: (1, 1), 7: (1, 7), 13: (1, 13), 12: (3, 4), 128: (8, 16), 256: (16, 16)}


def walked_loads(mesh, pairs):
    """The per-pair oracle: walk each XY path and count its links."""
    loads = {}
    for src, dst in pairs:
        path = xy_route(mesh, int(src), int(dst))
        for u, v in zip(path, path[1:]):
            key = (min(u, v), max(u, v))
            loads[key] = loads.get(key, 0) + 1
    return loads


@pytest.mark.parametrize("n", sorted(MESH_SIZES))
def test_mesh_shapes_are_the_intended_grids(n):
    mesh = Mesh2D(n)
    assert (mesh.rows, mesh.cols) == MESH_SIZES[n]


class TestPathLinkLoads:
    @pytest.mark.parametrize("n", sorted(MESH_SIZES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_pairs_match_walked_paths(self, n, seed):
        mesh = Mesh2D(n)
        rng = np.random.default_rng(seed)
        # small ranges make self-pairs and duplicates common
        pairs = rng.integers(0, n, size=(rng.integers(1, 3000), 2))
        assert path_link_loads(mesh, pairs) == walked_loads(mesh, pairs)

    @pytest.mark.parametrize("n", sorted(MESH_SIZES))
    def test_gather_and_all_to_all_match_walked_paths(self, n):
        mesh = Mesh2D(n)
        for pairs in (gather_pattern(mesh, 0), gather_pattern(mesh, n // 2, x=3)):
            assert path_link_loads(mesh, pairs) == walked_loads(mesh, pairs)
        walked = walked_loads(mesh, all_to_all_pattern(mesh))
        assert path_link_loads(mesh, all_to_all_pattern(mesh)) == walked
        # x repeats every pair, so it scales every walked load by x
        assert path_link_loads(mesh, all_to_all_pattern(mesh, x=2)) == {
            link: 2 * count for link, count in walked.items()
        }

    def test_accepts_tuples_lists_and_arrays(self):
        mesh = Mesh2D(12)
        tuples = [(0, 11), (5, 2), (3, 3), (0, 11)]
        expected = walked_loads(mesh, tuples)
        assert path_link_loads(mesh, tuples) == expected
        assert path_link_loads(mesh, [list(p) for p in tuples]) == expected
        assert path_link_loads(mesh, np.array(tuples, dtype=np.int32)) == expected

    def test_keys_are_ordered_python_int_links(self):
        mesh = Mesh2D(16)
        loads = path_link_loads(mesh, all_to_all_pattern(mesh))
        edges = set(mesh.edges())
        for (u, v), count in loads.items():
            assert type(u) is int and type(v) is int and type(count) is int
            assert (u, v) in edges
            assert count > 0

    def test_empty_patterns(self):
        mesh = Mesh2D(9)
        assert path_link_loads(mesh, []) == {}
        assert path_link_loads(mesh, np.empty((0, 2), dtype=np.int64)) == {}

    def test_self_pairs_load_nothing(self):
        mesh = Mesh2D(9)
        assert path_link_loads(mesh, [(k, k) for k in range(9)]) == {}

    def test_duplicates_accumulate(self):
        mesh = Mesh2D(9)
        assert path_link_loads(mesh, [(0, 2)] * 5) == {(0, 1): 5, (1, 2): 5}

    @pytest.mark.parametrize("pair", [(0, 9), (9, 0), (-1, 3), (3, -1)])
    def test_out_of_range_nodes_raise(self, pair):
        mesh = Mesh2D(9)
        with pytest.raises(ValueError, match="out of range"):
            path_link_loads(mesh, [(0, 1), pair])
        with pytest.raises(ValueError, match="out of range"):
            path_link_loads(mesh, np.array([pair]))

    def test_wrong_shape_raises(self):
        with pytest.raises(ValueError, match="shape"):
            path_link_loads(Mesh2D(9), [(0, 1, 2)])


def _hop_loop_average(total, n):
    return 0.0 if n == 1 else total / (n * (n - 1))


@pytest.mark.parametrize("cls", [Mesh2D, Torus2D, Ring, FullyConnected])
@pytest.mark.parametrize("n", list(range(1, 65)) + [128, 256])
def test_total_and_average_hops_match_the_double_loop(cls, n):
    topo = cls(n)
    total = int(hop_matrix(topo).sum())
    assert topo.total_hops() == total
    # exact float equality: the closed forms must keep every bit
    assert topo.average_hops() == _hop_loop_average(total, n)


@pytest.mark.parametrize("cls", [Mesh2D, Torus2D, Ring, FullyConnected])
@pytest.mark.parametrize("n", [1, 2, 6, 12, 25])
def test_generic_loop_is_the_fallback_oracle(cls, n):
    topo = cls(n)
    assert Topology.total_hops(topo) == topo.total_hops()


@pytest.mark.parametrize("n", [1, 2, 3, 10, 256])
def test_crossbar_link_count_matches_edges(n):
    topo = FullyConnected(n)
    assert topo.link_count() == sum(1 for _ in topo.edges()) == n * (n - 1) // 2
