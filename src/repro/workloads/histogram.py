"""Parallel histogram: the canonical partial-write reduction.

Jin, Yang & Agrawal [TKDE 2005], which the paper's Related Work leans on,
establish that privatised partial-write reductions "are common across many
categories of data mining applications" beyond clustering.  The histogram
is that pattern at its purest: per-item work is a single bin update, so the
merging phase (one ``n_bins`` array per thread) dominates the serial time
far more than in kmeans — a stress case for the extended model at the
opposite end of the fored spectrum from the clustering workloads.

Structure per the common template: init (allocate/zero bins), parallel
(each thread bins its slice into a private array), reduction (combine one
partial per thread via the configured strategy), serial (normalise, find
the mode).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import check_positive_int
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
from repro.workloads.reduction import resolve_strategy

__all__ = ["HistogramWorkload"]

_BIN_INSTR = 6        # hash/scale + bounds check + increment per item
_COMBINE_INSTR = 2
_NORMALISE_INSTR = 2


@dataclass
class HistogramWorkload(ClusteringWorkloadBase):
    """Histogram over synthetic data.

    Parameters
    ----------
    n_items:
        Input size (values drawn from a seeded mixture so the histogram
        has structure worth checking).
    n_bins:
        Histogram resolution — this is the reduction size x, so it directly
        dials the merging overhead.
    seed:
        Data seed.
    reduction_strategy:
        'serial' | 'tree' | 'parallel'.
    """

    n_items: int = 100_000
    n_bins: int = 1024
    seed: int = 0
    reduction_strategy: str = "serial"

    name = "histogram"

    def __post_init__(self) -> None:
        check_positive_int(self.n_items, "n_items")
        check_positive_int(self.n_bins, "n_bins")
        resolve_strategy(self.reduction_strategy)

    def _data(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        # mixture: uniform background + two Gaussian bumps
        n_bump = self.n_items // 3
        background = rng.integers(0, self.n_bins, size=self.n_items - 2 * n_bump)
        bump1 = np.clip(
            rng.normal(self.n_bins * 0.25, self.n_bins * 0.03, n_bump), 0, self.n_bins - 1
        ).astype(np.int64)
        bump2 = np.clip(
            rng.normal(self.n_bins * 0.7, self.n_bins * 0.05, n_bump), 0, self.n_bins - 1
        ).astype(np.int64)
        return np.concatenate([background, bump1, bump2])

    def _work_items(self) -> "tuple[int, str]":
        return self.n_items, "items"

    def _canonical_run(self) -> CanonicalRun:
        """Bin every item (integer counts, so exact at any thread count)."""
        histogram = np.bincount(self._data(), minlength=self.n_bins)
        return CanonicalRun(1, {
            "histogram": histogram,
            "mode_bin": int(np.argmax(histogram)),
            "density": histogram / self.n_items,
        })

    def _account(self, run: CanonicalRun, execution: WorkloadExecution) -> None:
        """Zero the bins, bin each thread's slice privately, merge one
        ``n_bins`` partial per thread, normalise on the master."""
        p = execution.n_threads
        counts = self.per_thread_counts(self.n_items, p).tolist()
        execution.add(PhaseWork(
            phase=PHASE_INIT,
            per_thread_instructions=master_only(self.n_bins + 40, p),
            per_thread_reads=master_only(0, p),
            per_thread_writes=master_only(self.n_bins, p),
        ))
        execution.add(PhaseWork(
            phase=PHASE_PARALLEL,
            per_thread_instructions=tuple(c * _BIN_INSTR for c in counts),
            per_thread_reads=tuple(counts),
            per_thread_writes=tuple(counts),
        ))
        execution.add(reduction_work(
            self.reduction_strategy, (self.n_bins,), p, _COMBINE_INSTR, self.n_bins
        ))
        execution.add(PhaseWork(
            phase=PHASE_SERIAL,
            per_thread_instructions=master_only(self.n_bins * _NORMALISE_INSTR, p),
            per_thread_reads=master_only(self.n_bins, p),
            per_thread_writes=master_only(self.n_bins, p),
        ))
