"""Fuzzy c-means clustering with a merging phase (MineBench fuzzym).

Fuzzy c-means generalises k-means with soft memberships: point *i* belongs
to center *j* with weight ``u_ij ∈ (0, 1)``; each iteration recomputes
memberships from distances and centers from membership-weighted sums.  The
parallel structure matches MineBench: points partitioned across threads,
per-thread privatised weighted partial sums (``C×D`` numerators plus ``C``
denominators), and a merging phase combining one partial per thread.

The per-point work is substantially larger than k-means (the membership
update is O(C²) per point on top of the O(C·D) distances), which is why the
paper measures a far smaller serial fraction for fuzzy (0.002% vs 0.015%)
with a comparable merge size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import check_positive, check_positive_int
from repro.workloads.base import (
    PHASE_INIT,
    PHASE_PARALLEL,
    PHASE_SERIAL,
    CanonicalRun,
    ClusteringWorkloadBase,
    PhaseWork,
    WorkloadExecution,
    master_only,
    reduction_work,
)
from repro.workloads.datasets import ClusteringDataset
from repro.workloads.reduction import resolve_strategy

__all__ = ["FuzzyCMeansWorkload"]

_DIST_INSTR_PER_DIM = 3
_MEMBERSHIP_INSTR = 4        # per (center, center) ratio term
_WEIGHTED_ACCUM_INSTR = 3    # multiply-add per dimension per center
_COMBINE_INSTR = 2
_UPDATE_INSTR = 3
_POINT_OVERHEAD = 6


@dataclass
class FuzzyCMeansWorkload(ClusteringWorkloadBase):
    """Fuzzy c-means over a :class:`ClusteringDataset`.

    Parameters
    ----------
    dataset:
        Points and the center count C.
    fuzziness:
        The fuzzifier m > 1 (MineBench default 2.0).
    max_iterations / tolerance:
        Iteration control on total center movement.
    reduction_strategy:
        'serial' | 'tree' | 'parallel'.
    seed:
        Initial-center seed.
    init:
        'random' (MineBench-style) or 'kmeans++' (D²-weighted seeding).
    """

    dataset: ClusteringDataset
    fuzziness: float = 2.0
    max_iterations: int = 10
    tolerance: float = 1e-4
    reduction_strategy: str = "serial"
    seed: int = 0
    init: str = "random"

    name = "fuzzy"

    def __post_init__(self) -> None:
        check_positive_int(self.max_iterations, "max_iterations")
        check_positive(self.tolerance, "tolerance")
        if self.fuzziness <= 1.0:
            raise ValueError(f"fuzziness must be > 1, got {self.fuzziness}")
        if self.init not in ("random", "kmeans++"):
            raise ValueError(f"init must be 'random' or 'kmeans++', got {self.init!r}")
        resolve_strategy(self.reduction_strategy)

    def _initial_centers(self, rng) -> "np.ndarray":
        """Starting centers per the configured policy (mirrors kmeans)."""
        ds = self.dataset
        C = ds.n_centers
        if self.init == "random":
            idx = rng.choice(ds.n_points, size=C, replace=False)
            return ds.points[idx].copy()
        centers = [ds.points[rng.integers(ds.n_points)]]
        d2 = ((ds.points - centers[0]) ** 2).sum(axis=1)
        for _ in range(C - 1):
            probs = d2 / d2.sum() if d2.sum() > 0 else np.full(ds.n_points, 1 / ds.n_points)
            centers.append(ds.points[rng.choice(ds.n_points, p=probs)])
            d2 = np.minimum(d2, ((ds.points - centers[-1]) ** 2).sum(axis=1))
        return np.array(centers)

    # ── kernels ───────────────────────────────────────────────────────────
    def _memberships(self, points: np.ndarray, centers: np.ndarray) -> np.ndarray:
        """Membership matrix (n, C) from current centers."""
        eps = 1e-12
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2) + eps
        power = 1.0 / (self.fuzziness - 1.0)
        inv = d2 ** (-power)
        return inv / inv.sum(axis=1, keepdims=True)

    def _partials(
        self, points: np.ndarray, centers: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        u = self._memberships(points, centers)
        w = u ** self.fuzziness
        numer = w.T @ points           # (C, D)
        denom = w.sum(axis=0)          # (C,)
        return u, numer, denom

    def _parallel_instr(self, n_points_thread: int) -> int:
        C, D = self.dataset.n_centers, self.dataset.n_dims
        per_point = (
            C * D * _DIST_INSTR_PER_DIM
            + C * C * _MEMBERSHIP_INSTR
            + C * D * _WEIGHTED_ACCUM_INSTR
            + _POINT_OVERHEAD
        )
        return n_points_thread * per_point

    @property
    def reduction_elements(self) -> int:
        """x: merged elements per iteration (C·D numerators + C denominators)."""
        return self.dataset.n_centers * (self.dataset.n_dims + 1)

    # ── execution ─────────────────────────────────────────────────────────
    def _work_items(self) -> "tuple[int, str]":
        return self.dataset.n_points, "points"

    def _canonical_run(self) -> CanonicalRun:
        """The fuzzy c-means iterations over all points as one partition
        (thread-count independent up to floating-point associativity)."""
        ds = self.dataset
        centers = self._initial_centers(np.random.default_rng(self.seed))
        n_iterations = 0
        for iteration in range(self.max_iterations):
            memberships, numer, denom = self._partials(ds.points, centers)
            new_centers = numer / np.maximum(denom, 1e-12)[:, None]
            movement = float(np.abs(new_centers - centers).sum())
            centers = new_centers
            n_iterations = iteration + 1
            if movement < self.tolerance:
                break
        return CanonicalRun(n_iterations, {
            "centers": centers,
            "memberships": memberships,
        })

    def _account(self, run: CanonicalRun, execution: WorkloadExecution) -> None:
        """Init, then per iteration: memberships and weighted partials over
        each thread's points, the merge of one ``C×D`` numerator and one
        ``C`` denominator partial per thread, and the center update."""
        p = execution.n_threads
        C, D = self.dataset.n_centers, self.dataset.n_dims
        counts = self.per_thread_counts(self.dataset.n_points, p).tolist()
        execution.add(PhaseWork(
            phase=PHASE_INIT,
            per_thread_instructions=master_only(C * D * 2 + 80, p),
            per_thread_reads=master_only(C * D, p),
            per_thread_writes=master_only(C * D, p),
        ))
        iteration = (
            PhaseWork(
                phase=PHASE_PARALLEL,
                per_thread_instructions=tuple(self._parallel_instr(n) for n in counts),
                per_thread_reads=tuple(n * D for n in counts),
                per_thread_writes=tuple(n * 2 for n in counts),
            ),
            reduction_work(self.reduction_strategy, (C * D, C), p,
                           _COMBINE_INSTR, self.reduction_elements),
            PhaseWork(
                phase=PHASE_SERIAL,
                per_thread_instructions=master_only(C * D * _UPDATE_INSTR + C, p),
                per_thread_reads=master_only(C * D, p),
                per_thread_writes=master_only(C * D, p),
            ),
        )
        execution.phases.extend(iteration * run.n_iterations)
