"""Clustering-quality metrics.

The reproduction's workloads must be *real* clustering algorithms, not
timing stand-ins; these metrics let the tests verify that the outputs are
good clusterings (and identical across thread counts).

Implemented from scratch (no sklearn in the environment):

* :func:`inertia` — within-cluster sum of squares (k-means' objective);
* :func:`purity` — majority-label agreement against ground truth;
* :func:`adjusted_rand_index` — chance-corrected pair-counting agreement;
* :func:`silhouette_mean` — mean silhouette coefficient (O(n²); sampled);
* :func:`davies_bouldin` — cluster scatter/separation ratio (lower=better).
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_positive_int

__all__ = [
    "inertia",
    "purity",
    "adjusted_rand_index",
    "silhouette_mean",
    "davies_bouldin",
]


def _check_labels(points: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    if points.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {points.shape}")
    if labels.shape != (points.shape[0],):
        raise ValueError(
            f"labels shape {labels.shape} does not match {points.shape[0]} points"
        )
    return points, labels


def inertia(points: np.ndarray, labels: np.ndarray, centers: np.ndarray) -> float:
    """Within-cluster sum of squared distances to the assigned center."""
    points, labels = _check_labels(points, labels)
    centers = np.asarray(centers, dtype=np.float64)
    if labels.min() < 0 or labels.max() >= centers.shape[0]:
        raise ValueError("labels reference centers that do not exist")
    return float(((points - centers[labels]) ** 2).sum())


def purity(labels: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of points whose cluster's majority true label matches
    their own true label.  1.0 = every cluster is label-pure."""
    labels = np.asarray(labels)
    truth = np.asarray(truth)
    if labels.shape != truth.shape:
        raise ValueError("labels and truth must have the same shape")
    if labels.size == 0:
        raise ValueError("need at least one point")
    total = 0
    for c in np.unique(labels):
        members = truth[labels == c]
        counts = np.unique(members, return_counts=True)[1]
        total += int(counts.max())
    return total / labels.size


def adjusted_rand_index(labels: np.ndarray, truth: np.ndarray) -> float:
    """Adjusted Rand index between two labelings (1 = identical
    partitions, ~0 = random agreement)."""
    labels = np.asarray(labels)
    truth = np.asarray(truth)
    if labels.shape != truth.shape:
        raise ValueError("labels and truth must have the same shape")
    n = labels.size
    if n < 2:
        raise ValueError("need at least two points")
    _, a_inv = np.unique(labels, return_inverse=True)
    _, b_inv = np.unique(truth, return_inverse=True)
    contingency = np.zeros((a_inv.max() + 1, b_inv.max() + 1), dtype=np.int64)
    np.add.at(contingency, (a_inv, b_inv), 1)

    def comb2(x: np.ndarray) -> np.ndarray:
        return x * (x - 1) // 2

    sum_ij = comb2(contingency).sum()
    sum_a = comb2(contingency.sum(axis=1)).sum()
    sum_b = comb2(contingency.sum(axis=0)).sum()
    total = comb2(np.array([n]))[0]
    expected = sum_a * sum_b / total if total else 0.0
    max_index = (sum_a + sum_b) / 2.0
    if max_index == expected:
        return 1.0
    return float((sum_ij - expected) / (max_index - expected))


def silhouette_mean(
    points: np.ndarray,
    labels: np.ndarray,
    sample: "int | None" = 500,
    seed: int = 0,
) -> float:
    """Mean silhouette coefficient in [−1, 1] (higher = better separated).

    Exact silhouette is O(n²); with ``sample`` set, a seeded subsample of
    points is scored against the full dataset.
    """
    points, labels = _check_labels(points, labels)
    uniq = np.unique(labels)
    if uniq.size < 2:
        raise ValueError("silhouette needs at least two clusters")
    n = points.shape[0]
    idx = np.arange(n)
    if sample is not None and sample < n:
        check_positive_int(sample, "sample")
        idx = np.random.default_rng(seed).choice(n, size=sample, replace=False)
    scores = []
    members = {c: points[labels == c] for c in uniq}
    for i in idx:
        own = labels[i]
        p = points[i]
        d_own = np.linalg.norm(members[own] - p, axis=1)
        a = d_own.sum() / max(1, d_own.size - 1)  # exclude self
        b = min(
            float(np.linalg.norm(members[c] - p, axis=1).mean())
            for c in uniq if c != own and members[c].size
        )
        denom = max(a, b)
        scores.append(0.0 if denom == 0 else (b - a) / denom)
    return float(np.mean(scores))


def davies_bouldin(points: np.ndarray, labels: np.ndarray) -> float:
    """Davies–Bouldin index (average worst scatter/separation ratio;
    lower = better)."""
    points, labels = _check_labels(points, labels)
    uniq = np.unique(labels)
    if uniq.size < 2:
        raise ValueError("Davies-Bouldin needs at least two clusters")
    centroids = np.array([points[labels == c].mean(axis=0) for c in uniq])
    scatters = np.array([
        float(np.linalg.norm(points[labels == c] - centroids[k], axis=1).mean())
        for k, c in enumerate(uniq)
    ])
    k = uniq.size
    worst = np.zeros(k)
    for i in range(k):
        ratios = [
            (scatters[i] + scatters[j]) / np.linalg.norm(centroids[i] - centroids[j])
            for j in range(k) if j != i
        ]
        worst[i] = max(ratios)
    return float(worst.mean())
