"""Unit tests for the clustering-quality metrics."""

import numpy as np
import pytest

from repro.workloads.datasets import make_blobs
from repro.workloads.kmeans import KMeansWorkload
from tests.workloads.quality import (
    adjusted_rand_index,
    davies_bouldin,
    inertia,
    purity,
    silhouette_mean,
)


def two_clear_clusters(n=100, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 0.05, size=(n, 2))
    b = rng.normal(1.0, 0.05, size=(n, 2)) + np.array([1.0, 1.0])
    points = np.vstack([a, b])
    truth = np.array([0] * n + [1] * n)
    return points, truth


class TestInertia:
    def test_zero_when_points_on_centers(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        centers = pts.copy()
        assert inertia(pts, np.array([0, 1]), centers) == 0.0

    def test_matches_manual_computation(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0]])
        centers = np.array([[1.0, 0.0]])
        assert inertia(pts, np.array([0, 0]), centers) == pytest.approx(2.0)

    def test_invalid_label(self):
        with pytest.raises(ValueError):
            inertia(np.zeros((2, 2)), np.array([0, 5]), np.zeros((1, 2)))


class TestPurity:
    def test_perfect(self):
        pts, truth = two_clear_clusters()
        assert purity(truth, truth) == 1.0

    def test_label_permutation_still_pure(self):
        _, truth = two_clear_clusters()
        assert purity(1 - truth, truth) == 1.0

    def test_random_labels_impure(self):
        _, truth = two_clear_clusters()
        rng = np.random.default_rng(1)
        assert purity(rng.integers(0, 2, truth.size), truth) < 0.8

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            purity(np.array([0, 1]), np.array([0]))


class TestARI:
    def test_identical_partitions(self):
        _, truth = two_clear_clusters()
        assert adjusted_rand_index(truth, truth) == pytest.approx(1.0)

    def test_permuted_labels_still_one(self):
        _, truth = two_clear_clusters()
        assert adjusted_rand_index(1 - truth, truth) == pytest.approx(1.0)

    def test_random_near_zero(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 4, 2000)
        b = rng.integers(0, 4, 2000)
        assert abs(adjusted_rand_index(a, b)) < 0.05

    def test_partial_agreement_between(self):
        _, truth = two_clear_clusters(n=200)
        noisy = truth.copy()
        noisy[:40] = 1 - noisy[:40]  # corrupt 10%
        score = adjusted_rand_index(noisy, truth)
        assert 0.3 < score < 1.0


class TestSilhouette:
    def test_well_separated_clusters_score_high(self):
        pts, truth = two_clear_clusters()
        assert silhouette_mean(pts, truth, sample=None) > 0.8

    def test_bad_split_scores_low(self):
        pts, truth = two_clear_clusters()
        rng = np.random.default_rng(0)
        bad = rng.integers(0, 2, truth.size)
        assert silhouette_mean(pts, bad, sample=None) < 0.2

    def test_sampled_close_to_exact(self):
        pts, truth = two_clear_clusters(n=300)
        exact = silhouette_mean(pts, truth, sample=None)
        sampled = silhouette_mean(pts, truth, sample=150, seed=1)
        assert abs(exact - sampled) < 0.1

    def test_single_cluster_rejected(self):
        pts, _ = two_clear_clusters()
        with pytest.raises(ValueError):
            silhouette_mean(pts, np.zeros(pts.shape[0], dtype=int))


class TestDaviesBouldin:
    def test_tight_separated_clusters_score_low(self):
        pts, truth = two_clear_clusters()
        assert davies_bouldin(pts, truth) < 0.5

    def test_bad_labels_score_higher(self):
        pts, truth = two_clear_clusters()
        rng = np.random.default_rng(3)
        bad = rng.integers(0, 2, truth.size)
        assert davies_bouldin(pts, bad) > davies_bouldin(pts, truth)


class TestWorkloadQuality:
    def test_kmeans_produces_quality_clustering(self):
        ds = make_blobs(800, 4, 4, seed=7, spread=0.03)
        rng = np.random.default_rng(7)
        # ground truth: nearest true center
        truth = np.argmin(
            np.linalg.norm(ds.points[:, None] - ds.true_centers[None], axis=2), axis=1
        )
        ex = KMeansWorkload(ds, max_iterations=25, seed=3, init="kmeans++").execute(2)
        ari = adjusted_rand_index(ex.outputs["assignments"], truth)
        assert ari > 0.9
