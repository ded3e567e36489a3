"""K-means clustering with an explicit merging phase (MineBench kmeans).

The parallel structure mirrors MineBench: points are statically partitioned
across threads; each thread assigns its points to the nearest center and
accumulates *privatised* partial sums (one ``C×D`` array plus ``C`` counts
per thread); the merging phase (Algorithm 1 of the paper) then combines the
partials — the loop ``for i in clusters: for j in threads`` whose cost grows
linearly with the thread count — and a small serial phase recomputes the
centers and checks convergence.

Instruction-count constants approximate a compiled inner loop (a
subtract/multiply/add triple per dimension per center, etc.); their absolute
values only set the scale of the measured fractions, the *structure* (what
grows with p, what doesn't) is what the paper's model consumes.
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

__all__ = ["KMeansWorkload"]

# instruction-cost constants (per element operation of the inner loops)
_DIST_INSTR_PER_DIM = 3      # sub, mul, add
_MIN_TRACK_INSTR = 2         # compare + conditional move per center
_ACCUM_INSTR_PER_DIM = 2     # load-add-store amortised
_COMBINE_INSTR = 2           # load + add per merged element
_UPDATE_INSTR = 3            # divide + convergence delta per element
_POINT_OVERHEAD = 4          # loop/index bookkeeping per point


@dataclass
class KMeansWorkload(ClusteringWorkloadBase):
    """Lloyd's k-means over a :class:`ClusteringDataset`.

    Parameters
    ----------
    dataset:
        The points and the center count C.
    max_iterations:
        Upper bound on Lloyd iterations.
    tolerance:
        Convergence threshold on total center movement.
    reduction_strategy:
        'serial' (MineBench's, the paper's baseline), 'tree' or 'parallel'.
    seed:
        Seed for the initial center choice.
    init:
        'random' (MineBench-style uniform sample) or 'kmeans++'
        (D²-weighted seeding; far less prone to poor local optima).
    """

    dataset: ClusteringDataset
    max_iterations: int = 10
    tolerance: float = 1e-4
    reduction_strategy: str = "serial"
    seed: int = 0
    init: str = "random"

    name = "kmeans"

    def __post_init__(self) -> None:
        check_positive_int(self.max_iterations, "max_iterations")
        check_positive(self.tolerance, "tolerance")
        if self.init not in ("random", "kmeans++"):
            raise ValueError(f"init must be 'random' or 'kmeans++', got {self.init!r}")
        resolve_strategy(self.reduction_strategy)  # validate early

    def _initial_centers(self, rng: np.ndarray) -> np.ndarray:
        """Pick the C starting centers per the configured policy."""
        ds = self.dataset
        C = ds.n_centers
        if self.init == "random":
            idx = rng.choice(ds.n_points, size=C, replace=False)
            return ds.points[idx].copy()
        # kmeans++: first center uniform, then D²-weighted
        centers = [ds.points[rng.integers(ds.n_points)]]
        d2 = ((ds.points - centers[0]) ** 2).sum(axis=1)
        for _ in range(C - 1):
            probs = d2 / d2.sum() if d2.sum() > 0 else np.full(ds.n_points, 1 / ds.n_points)
            nxt = rng.choice(ds.n_points, p=probs)
            centers.append(ds.points[nxt])
            d2 = np.minimum(d2, ((ds.points - centers[-1]) ** 2).sum(axis=1))
        return np.array(centers)

    # ── numeric kernels (also the source of the work accounting) ─────────
    def _assign_and_accumulate(
        self, points: np.ndarray, centers: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Assignment plus per-center sums and counts over ``points``."""
        # pairwise squared distances (n_t, C)
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(d2, axis=1)
        C, D = centers.shape
        partial_sums = np.zeros((C, D), dtype=np.float64)
        np.add.at(partial_sums, assign, points)
        partial_counts = np.bincount(assign, minlength=C).astype(np.float64)
        return assign, partial_sums, partial_counts

    def _parallel_instr(self, n_points_thread: int) -> int:
        C, D = self.dataset.n_centers, self.dataset.n_dims
        per_point = (
            C * D * _DIST_INSTR_PER_DIM
            + C * _MIN_TRACK_INSTR
            + D * _ACCUM_INSTR_PER_DIM
            + _POINT_OVERHEAD
        )
        return n_points_thread * per_point

    @property
    def reduction_elements(self) -> int:
        """x: elements merged per iteration (C·D sums plus C counts)."""
        return self.dataset.n_centers * (self.dataset.n_dims + 1)

    # ── execution ─────────────────────────────────────────────────────────
    def _work_items(self) -> "tuple[int, str]":
        return self.dataset.n_points, "points"

    def _canonical_run(self) -> CanonicalRun:
        """Lloyd's iterations over all points as one partition.

        Per-thread partials only reorder the floating-point sums, so the
        numerics (and with them ``n_iterations``) are the same at every
        thread count up to associativity.
        """
        ds = self.dataset
        centers = self._initial_centers(np.random.default_rng(self.seed))
        n_iterations = 0
        for iteration in range(self.max_iterations):
            assignments, sums, counts = self._assign_and_accumulate(ds.points, centers)
            safe_counts = np.maximum(counts, 1.0)
            new_centers = sums / safe_counts[:, None]
            # empty clusters keep their previous position
            empty = counts < 0.5
            new_centers[empty] = centers[empty]
            movement = float(np.abs(new_centers - centers).sum())
            centers = new_centers
            n_iterations = iteration + 1
            if movement < self.tolerance:
                break
        return CanonicalRun(n_iterations, {
            "centers": centers,
            "assignments": assignments,
            "inertia": float(((ds.points - centers[assignments]) ** 2).sum()),
        })

    def _account(self, run: CanonicalRun, execution: WorkloadExecution) -> None:
        """Init, then per iteration: assignment over each thread's points,
        the merge of one ``C×D`` sum and one ``C`` count partial per
        thread, and the center update on the master."""
        p = execution.n_threads
        C, D = self.dataset.n_centers, self.dataset.n_dims
        counts = self.per_thread_counts(self.dataset.n_points, p).tolist()
        execution.add(PhaseWork(
            phase=PHASE_INIT,
            per_thread_instructions=master_only(C * D * 2 + 50, p),
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
