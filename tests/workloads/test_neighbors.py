"""Exactness of the numpy grid k-NN (:mod:`repro.workloads.neighbors`).

Two oracles: scipy's ``cKDTree`` on the particle sets the experiments
build (skipped where scipy is not installed), and an O(n²) numpy
reference on degenerate inputs.  Both must agree bit for bit.
"""

import pickle

import numpy as np
import pytest

from repro.workloads import default_workloads, hop
from repro.workloads import neighbors
from repro.workloads.datasets import make_particles
from repro.workloads.hop import HopWorkload
from repro.workloads.neighbors import knn

#: n_neighbors + 1: every HOP workload the experiments build uses k = 12
K = 13

#: the particle sets of runall, Table IV and full-scale runs
EXPERIMENT_DATASETS = {
    400: lambda: default_workloads(0.02)["hop"].dataset,
    # Table IV at its default scale 0.08: hop-default and hop-med
    983: lambda: make_particles(983, n_halos=16, seed=31),
    1966: lambda: make_particles(1966, n_halos=64, seed=32),
    2304: lambda: default_workloads(0.15)["hop"].dataset,
    4608: lambda: default_workloads(0.3)["hop"].dataset,
    15360: lambda: default_workloads(1.0)["hop"].dataset,
}


def reference_knn(points, k):
    """All pairwise squared distances in axis order, ordered by
    (distance², index)."""
    pts = np.asarray(points, dtype=np.float64)
    s = np.zeros((len(pts), len(pts)))
    for axis in range(pts.shape[1]):
        diff = pts[:, None, axis] - pts[None, :, axis]
        s += diff * diff
    idx = np.argsort(s, axis=1, kind="stable")[:, :k]
    return np.sqrt(np.take_along_axis(s, idx, axis=1)), idx


def assert_bit_equal(got, want):
    dists, idx = got
    want_dists, want_idx = want
    np.testing.assert_array_equal(idx, want_idx)
    assert dists.dtype == want_dists.dtype == np.float64
    np.testing.assert_array_equal(dists.view(np.uint64), want_dists.view(np.uint64))


@pytest.mark.parametrize("n", sorted(EXPERIMENT_DATASETS))
def test_matches_ckdtree_on_experiment_datasets(n):
    spatial = pytest.importorskip("scipy.spatial")
    ds = EXPERIMENT_DATASETS[n]()
    assert ds.n_particles == n
    want = spatial.cKDTree(ds.positions).query(ds.positions, k=K)
    assert_bit_equal(knn(ds.positions, K), want)


class TestDegenerateInputs:
    def test_axis_with_zero_span(self):
        pts = np.random.default_rng(0).uniform(size=(300, 3))
        pts[:, 1] = 0.25
        assert_bit_equal(knn(pts, K), reference_knn(pts, K))

    def test_all_points_identical_ties_by_index(self):
        pts = np.full((20, 3), 0.5)
        dists, idx = knn(pts, K)
        assert np.all(dists == 0.0)
        np.testing.assert_array_equal(idx, np.tile(np.arange(K), (20, 1)))

    def test_k_equals_n(self):
        pts = np.random.default_rng(1).uniform(size=(K, 3))
        assert_bit_equal(knn(pts, K), reference_knn(pts, K))

    def test_hop_with_every_other_particle_as_neighbour(self):
        ds = make_particles(K, n_halos=1, seed=4)
        ex = HopWorkload(ds, n_neighbors=K - 1).execute(2)
        assert np.all(ex.outputs["density"] > 0)

    def test_every_point_in_one_cell(self):
        rng = np.random.default_rng(2)
        cluster = 0.5 + rng.uniform(-1e-3, 1e-3, size=(500, 3))
        pts = np.vstack([cluster, [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]])
        assert_bit_equal(knn(pts, K), reference_knn(pts, K))

    @pytest.mark.parametrize("spacing", [1.0, 0.1])
    def test_points_exactly_on_cell_edges(self, monkeypatch, spacing):
        # a lattice whose pitch is the cell edge: every coordinate lies on
        # a cell boundary, and lattice distances tie everywhere
        monkeypatch.setattr(neighbors, "_cell_size", lambda span, n, k: spacing)
        axis = np.arange(7) * spacing
        pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
        assert_bit_equal(knn(pts, K), reference_knn(pts, K))

    def test_tie_with_a_point_beyond_the_block(self, monkeypatch):
        # half-unit lattice, unit cells: the block around 2.5 spans
        # [1.0, 4.0), and 4.0, just beyond it, ties with 1.0 at distance
        # 1.5.  Indices run downwards, so 4.0 is the 6th neighbour.
        monkeypatch.setattr(neighbors, "_cell_size", lambda span, n, k: 1.0)
        pts = (np.arange(12)[::-1] * 0.5)[:, None]
        got = knn(pts, 6)
        assert_bit_equal(got, reference_knn(pts, 6))
        assert pts[got[1][np.flatnonzero(pts[:, 0] == 2.5)[0], 5], 0] == 4.0

    def test_duplicate_points_tie_by_index(self):
        rng = np.random.default_rng(3)
        base = rng.uniform(size=(120, 3))
        pts = base[rng.permutation(np.repeat(np.arange(120), 4))]
        got = knn(pts, K)
        assert_bit_equal(got, reference_knn(pts, K))
        # the four copies of each point come first, lowest index first
        for i in range(0, len(pts), 37):
            copies = np.flatnonzero((pts == pts[i]).all(axis=1))
            np.testing.assert_array_equal(got[1][i, :4], copies)

    @pytest.mark.parametrize("dims", [1, 2, 4])
    def test_other_dimensions(self, dims):
        pts = np.random.default_rng(dims).normal(size=(400, dims))
        assert_bit_equal(knn(pts, K), reference_knn(pts, K))

    def test_small_chunks(self, monkeypatch):
        monkeypatch.setattr(neighbors, "_CHUNK", 64)
        pts = make_particles(600, n_halos=4, seed=5).positions
        assert_bit_equal(knn(pts, K), reference_knn(pts, K))

    def test_rejects_bad_arguments(self):
        pts = np.zeros((5, 3))
        with pytest.raises(ValueError):
            knn(pts, 6)
        with pytest.raises(ValueError):
            knn(pts, 0)
        with pytest.raises(ValueError):
            knn(np.zeros(5), 1)
        with pytest.raises(ValueError):
            knn(np.array([[0.0, np.nan]]), 1)


class TestHopNeighbourCache:
    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def counting_knn(points, k):
            calls.append(k)
            return knn(points, k)

        monkeypatch.setattr(hop, "knn", counting_knn)
        return calls

    def test_computed_once_per_dataset(self, calls):
        wl = HopWorkload(make_particles(400, n_halos=3, seed=6), n_neighbors=8)
        first = wl.execute(1)
        again = wl.execute(4)
        assert calls == [9]
        np.testing.assert_array_equal(first.outputs["groups"], again.outputs["groups"])

        wl.dataset = other = make_particles(400, n_halos=3, seed=7)
        swapped = wl.execute(2)
        wl.execute(8)
        assert calls == [9, 9]
        wl.n_neighbors = 6
        wl.execute(1)
        assert calls == [9, 9, 7]

        fresh = HopWorkload(other, n_neighbors=8).execute(2)
        assert swapped.phases == fresh.phases
        np.testing.assert_array_equal(swapped.outputs["density"], fresh.outputs["density"])

    def test_pickle_leaves_the_cache_behind(self, calls):
        wl = HopWorkload(make_particles(300, n_halos=3, seed=8), n_neighbors=8)
        want = wl.execute(2)
        copy = pickle.loads(pickle.dumps(wl))
        assert copy._neighbors is None
        got = copy.execute(2)
        assert calls == [9, 9]
        assert got.phases == want.phases
        np.testing.assert_array_equal(got.outputs["groups"], want.outputs["groups"])

    def test_cached_neighbours_are_read_only(self):
        wl = HopWorkload(make_particles(300, n_halos=3, seed=8), n_neighbors=8)
        dists, idx = wl.neighbors()
        with pytest.raises(ValueError):
            idx[0, 0] = 1
        with pytest.raises(ValueError):
            dists[0, 0] = 1.0
