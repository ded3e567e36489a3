"""Unit tests for synthetic dataset generators."""

import numpy as np
import pytest

from repro.workloads.datasets import (
    TABLE4_DATASETS,
    make_blobs,
    make_particles,
)
from repro.workloads.neighbors import knn


class TestMakeBlobs:
    def test_shape_and_attributes(self):
        ds = make_blobs(500, 9, 8, seed=0)
        assert ds.points.shape == (500, 9)
        assert ds.n_points == 500
        assert ds.n_dims == 9
        assert ds.n_centers == 8
        assert ds.true_centers.shape == (8, 9)

    def test_deterministic_with_seed(self):
        a = make_blobs(100, 4, 3, seed=7)
        b = make_blobs(100, 4, 3, seed=7)
        assert np.array_equal(a.points, b.points)

    def test_equal_calls_share_one_dataset_while_it_lives(self):
        import gc
        import weakref

        a = make_blobs(100, 4, 3, seed=7)
        assert make_blobs(100, 4, 3, seed=7) is a
        assert make_blobs(100, 4, 3, seed=8) is not a
        assert make_blobs(100, 4, 3, seed=7, label="other") is not a
        alive = weakref.ref(a)
        del a
        gc.collect()
        assert alive() is None  # sharing keeps nothing alive
        assert make_particles(50, seed=1) is make_particles(50, seed=1)

    def test_different_seeds_differ(self):
        a = make_blobs(100, 4, 3, seed=7)
        b = make_blobs(100, 4, 3, seed=8)
        assert not np.array_equal(a.points, b.points)

    def test_points_cluster_around_centers(self):
        ds = make_blobs(2000, 5, 4, seed=1, spread=0.05)
        # each point is within a few spreads of its nearest true center
        d = np.linalg.norm(
            ds.points[:, None, :] - ds.true_centers[None, :, :], axis=2
        ).min(axis=1)
        assert np.quantile(d, 0.99) < 0.05 * 5

    def test_rejects_more_centers_than_points(self):
        with pytest.raises(ValueError):
            make_blobs(5, 2, 10)


class TestMakeParticles:
    def test_shapes(self):
        ds = make_particles(1000, n_halos=4, seed=0)
        assert ds.positions.shape == (1000, 3)
        assert ds.masses.shape == (1000,)
        assert ds.n_particles == 1000

    def test_positions_in_unit_cube(self):
        ds = make_particles(500, seed=3)
        assert ds.positions.min() >= 0.0
        assert ds.positions.max() <= 1.0

    def test_halos_create_density_contrast(self):
        ds = make_particles(2000, n_halos=3, seed=1, background_fraction=0.3)
        # clustered particles concentrate: median nearest-neighbour distance
        # is much smaller than a uniform distribution's expectation
        d, _ = knn(ds.positions, 2)
        nn = d[:, 1]
        uniform_expectation = 0.55 / (2000 ** (1 / 3))
        assert np.median(nn) < uniform_expectation

    def test_rejects_bad_background(self):
        with pytest.raises(ValueError):
            make_particles(100, background_fraction=1.0)


class TestTable4Datasets:
    def test_all_ten_labels(self):
        assert len(TABLE4_DATASETS) == 10
