"""MineBench-style clustering workloads with instrumented phase structure.

The paper studies the three multithreaded clustering benchmarks of
MineBench — **kmeans**, **fuzzy** (fuzzy c-means) and **hop** — because they
have tiny serial sections and a per-iteration *merging phase* that
accumulates per-thread partial results.  This package re-implements them
from scratch with the same parallel structure:

* the point/particle work is partitioned across threads (parallel phase);
* each thread accumulates privatised partial results;
* a merging (reduction) phase combines one partial per thread — the
  inherently serial component whose cost grows with the thread count;
* a small constant serial phase updates global state and checks
  convergence.

Each workload runs numerically (numpy) *and* emits a deterministic
per-phase work accounting (instruction and memory-access counts), from
which :mod:`repro.workloads.tracegen` builds simulator traces and
:mod:`repro.hardware` builds modelled wall-clock times.
"""

from repro.workloads.base import (
    PHASE_INIT,
    PHASE_PARALLEL,
    PHASE_REDUCTION,
    PHASE_SERIAL,
    PhaseWork,
    WorkloadExecution,
)
from repro.workloads.datasets import (
    ClusteringDataset,
    ParticleDataset,
    TABLE4_DATASETS,
    make_blobs,
    make_particles,
)
from repro.workloads.fuzzy import FuzzyCMeansWorkload
from repro.workloads.histogram import HistogramWorkload
from repro.workloads.hop import HopWorkload
from repro.workloads.instrument import PhaseBreakdown, extract_parameters
from repro.workloads.kmeans import KMeansWorkload
from repro.workloads.reduction import (
    parallel_reduce,
    serial_reduce,
    tree_reduce,
)

__all__ = [
    "PHASE_INIT",
    "PHASE_PARALLEL",
    "PHASE_REDUCTION",
    "PHASE_SERIAL",
    "PhaseWork",
    "WorkloadExecution",
    "ClusteringDataset",
    "ParticleDataset",
    "TABLE4_DATASETS",
    "make_blobs",
    "make_particles",
    "KMeansWorkload",
    "FuzzyCMeansWorkload",
    "HopWorkload",
    "HistogramWorkload",
    "serial_reduce",
    "tree_reduce",
    "parallel_reduce",
    "PhaseBreakdown",
    "extract_parameters",
    "default_workloads",
]

#: paper dataset attributes (kmeans/fuzzy: N, D, C; hop: particles)
_PAPER_N = 17695
_PAPER_HOP_N = 61440


def default_workloads(scale: float = 0.15, max_iterations: int = 4) -> dict:
    """The three paper workloads at ``scale`` times the paper's data size.

    The paper uses the full MineBench datasets; a pure-Python simulator
    prices those in minutes, so the drivers default to scaled-down data.
    The extracted quantities are *fractions and growth slopes*, stable
    under dataset scaling (Table IV's argument); the absolute serial
    percentage shifts with scale, which EXPERIMENTS.md records.
    """
    if not (0 < scale <= 1.0):
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    n = max(200, int(_PAPER_N * scale))
    n_hop = max(400, int(_PAPER_HOP_N * scale * 0.25))
    return {
        "kmeans": KMeansWorkload(
            make_blobs(n, 9, 8, seed=11, label="kmeans-base"),
            max_iterations=max_iterations, tolerance=1e-12,
        ),
        "fuzzy": FuzzyCMeansWorkload(
            make_blobs(n, 9, 8, seed=21, label="fuzzy-base"),
            max_iterations=max_iterations, tolerance=1e-12,
        ),
        "hop": HopWorkload(
            make_particles(n_hop, n_halos=16, seed=31, label="hop-default"),
            n_neighbors=12,
        ),
    }
