"""HOP density-based clustering (MineBench hop).

HOP [Eisenstein & Hut 1998] groups N-body particles by density:

1. **tree** — build a spatial search structure (the paper notes this
   parallel kernel "does not scale up to 16 cores": the top-level splits
   are inherently sequential, modelled here as a non-partitionable work
   term per thread);
2. **density** — smoothed local density from each particle's k nearest
   neighbours (data-parallel over particles);
3. **hop** — each particle hops to its densest neighbour, chains compress
   to a density maximum; particles reaching the same maximum form a group
   (data-parallel pointer chasing);
4. **merge** — per-thread group tables and cross-partition hop edges are
   combined on the master.  The merged table grows with the thread count
   (one table per thread), every probe walks a global table that has
   already absorbed the earlier threads' entries, and the data read is
   scattered remote memory — together the memory-bound, superlinear
   behaviour behind hop's fored = 155% in Table II.

Particles are domain-decomposed: sorted by position (slab partitioning
along the first axis, as N-body codes do) so each thread owns a spatially
coherent region and cross-partition edges scale with the number of slab
boundaries rather than saturating immediately.

The kd-tree build and its per-particle queries are *modelled* work (the
instruction counts below).  The host numerics find the neighbours with the
exact numpy grid search of :func:`repro.workloads.neighbors.knn`, which
returns what ``cKDTree.query`` returns, bit for bit.  Neighbours do not
depend on the thread count, so a workload computes them once per dataset
and every ``execute`` reuses them; the grouping result is independent of
the thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.validation import check_positive_int
from repro.workloads.base import (
    PHASE_INIT,
    PHASE_PARALLEL,
    PHASE_REDUCTION,
    PHASE_SERIAL,
    ClusteringWorkloadBase,
    PhaseWork,
    WorkloadExecution,
)
from repro.workloads.datasets import ParticleDataset
from repro.workloads.neighbors import knn

__all__ = ["HopWorkload"]

_TREE_INSTR_PER_LEVEL = 8     # partition/compare per particle per level
_DENSITY_INSTR_PER_NEIGH = 12 # kernel-weighted accumulate per neighbour
_QUERY_INSTR_PER_LEVEL = 6    # kd-tree descent per level
_HOP_INSTR_PER_STEP = 5       # follow-densest-neighbour step
_MERGE_INSTR_PER_ENTRY = 6    # hash probe + union per merged table entry
_MERGE_PROBE_SCALE = 3        # extra probe cost per already-merged table
_EDGE_INSTR = 8               # cross-partition edge resolution


@dataclass
class HopWorkload(ClusteringWorkloadBase):
    """HOP over a :class:`ParticleDataset`.

    Parameters
    ----------
    dataset:
        Particle positions and masses.
    n_neighbors:
        k for the density estimate and hop candidate set (MineBench
        default region: 16–64; we default lower to keep test datasets
        fast).
    density_threshold_quantile:
        Particles below this density quantile stay ungrouped (background).
    """

    dataset: ParticleDataset
    n_neighbors: int = 16
    density_threshold_quantile: float = 0.2
    #: (dataset, n_neighbors, distances, indices) of the last neighbour search
    _neighbors: tuple = field(default=None, init=False, repr=False, compare=False)

    name = "hop"

    def __post_init__(self) -> None:
        check_positive_int(self.n_neighbors, "n_neighbors")
        if not (0.0 <= self.density_threshold_quantile < 1.0):
            raise ValueError(
                "density_threshold_quantile must be in [0, 1), got "
                f"{self.density_threshold_quantile}"
            )
        if self.n_neighbors >= self.dataset.n_particles:
            raise ValueError(
                f"n_neighbors {self.n_neighbors} must be below particle count "
                f"{self.dataset.n_particles}"
            )

    def __getstate__(self) -> dict:
        # a pickled workload (a work unit bound for a worker) leaves the
        # neighbour arrays behind; the receiver recomputes them on demand
        return {**self.__dict__, "_neighbors": None}

    def neighbors(self) -> "tuple[np.ndarray, np.ndarray]":
        """``(distances, indices)`` of each particle's ``n_neighbors + 1``
        nearest particles, itself included, nearest first (see
        :func:`~repro.workloads.neighbors.knn`).  Computed once per
        dataset and ``n_neighbors``; the arrays are read-only."""
        cached = self._neighbors
        if (cached is None or cached[0] is not self.dataset
                or cached[1] != self.n_neighbors):
            dists, idx = knn(self.dataset.positions, self.n_neighbors + 1)
            dists.flags.writeable = idx.flags.writeable = False
            cached = self._neighbors = (self.dataset, self.n_neighbors, dists, idx)
        return cached[2], cached[3]

    # ── execution ─────────────────────────────────────────────────────────
    def execute(self, n_threads: int) -> WorkloadExecution:
        """Run HOP with ``n_threads`` logical threads (single pass — HOP is
        not iterative like the center-based methods)."""
        check_positive_int(n_threads, "n_threads")
        ds = self.dataset
        n = ds.n_particles
        if n_threads > n:
            raise ValueError(f"more threads ({n_threads}) than particles ({n})")
        k = self.n_neighbors
        levels = max(1, int(np.ceil(np.log2(n))))
        execution = WorkloadExecution(
            workload=self.name, n_threads=n_threads, n_iterations=1
        )
        serial_only = lambda v: tuple(  # noqa: E731
            int(v) if t == 0 else 0 for t in range(n_threads)
        )
        counts = self.per_thread_counts(n, n_threads)
        slices = self.partition(n, n_threads)
        # domain decomposition: slab-partition along the first axis so each
        # thread owns a spatially coherent region (cross-partition edges
        # then scale with the slab boundaries, as on a real N-body code)
        order = np.argsort(ds.positions[:, 0], kind="stable")

        # ── init (serial): bounding box, allocation ──────────────────────
        execution.add(PhaseWork(
            phase=PHASE_INIT,
            per_thread_instructions=serial_only(n // 8 + 60),
            per_thread_reads=serial_only(n // 8),
            per_thread_writes=serial_only(20),
        ))

        # ── tree build (parallel, imperfectly scalable) ──────────────────
        # each thread builds its subtree ((n/p)·levels work) but the top
        # log2(p) split levels scan the whole input on every participating
        # thread — the non-scaling term that caps hop's speedup (~13.5@16).
        top_levels = max(1, int(np.ceil(np.log2(n_threads)))) if n_threads > 1 else 0
        tree_instr = tuple(
            int(c) * levels * _TREE_INSTR_PER_LEVEL
            + (n // max(n_threads, 1)) * top_levels * _TREE_INSTR_PER_LEVEL
            for c in counts
        )
        execution.add(PhaseWork(
            phase=PHASE_PARALLEL,
            per_thread_instructions=tree_instr,
            per_thread_reads=tuple(int(c) * levels for c in counts),
            per_thread_writes=tuple(int(c) * 2 for c in counts),
        ))

        # ── density (parallel) ────────────────────────────────────────────
        dists, neighbors = self.neighbors()
        # smoothed density: inverse-distance-weighted neighbour masses
        eps = 1e-9
        weights = 1.0 / (dists[:, 1:] ** 2 + eps)
        density = (weights * ds.masses[neighbors[:, 1:]]).sum(axis=1)
        execution.add(PhaseWork(
            phase=PHASE_PARALLEL,
            per_thread_instructions=tuple(
                int(c) * (k * _DENSITY_INSTR_PER_NEIGH + levels * _QUERY_INSTR_PER_LEVEL)
                for c in counts
            ),
            per_thread_reads=tuple(int(c) * k for c in counts),
            per_thread_writes=tuple(int(c) for c in counts),
        ))

        # ── hop (parallel pointer chasing) ────────────────────────────────
        candidates = neighbors  # includes self in column 0
        cand_density = density[candidates]
        next_hop = candidates[np.arange(n), np.argmax(cand_density, axis=1)]
        # particles denser than all neighbours point to themselves (maxima)
        roots = next_hop.copy()
        total_hops = n  # every particle does at least its own lookup
        changed = True
        while changed:
            compressed = roots[roots]
            changed = bool(np.any(compressed != roots))
            total_hops += int(np.count_nonzero(compressed != roots))
            roots = compressed
        execution.add(PhaseWork(
            phase=PHASE_PARALLEL,
            per_thread_instructions=tuple(
                int(c) * (total_hops // n + 1) * _HOP_INSTR_PER_STEP for c in counts
            ),
            per_thread_reads=tuple(int(c) * 2 for c in counts),
            per_thread_writes=tuple(int(c) for c in counts),
        ))

        # background suppression: low-density particles stay ungrouped
        threshold = float(np.quantile(density, self.density_threshold_quantile))
        grouped_mask = density >= threshold

        # ── merge (serial reduction on the master) ────────────────────────
        # per-thread local group tables: unique roots within each slab
        local_group_counts = []
        for sl in slices:
            members = order[sl]
            r = roots[members][grouped_mask[members]]
            local_group_counts.append(int(np.unique(r).size))
        table_entries = int(sum(local_group_counts))
        # cross-partition hop edges the master must resolve (slab owners)
        owner = np.empty(n, dtype=np.int64)
        for t, sl in enumerate(slices):
            owner[order[sl.start:sl.stop]] = t
        cross_edges = int(np.count_nonzero(owner != owner[next_hop]))
        # probe cost grows with the already-accumulated global table: the
        # t-th table's entries probe a structure holding ~t earlier tables —
        # the superlinear, memory-bound component the paper observes.
        probe_instr = sum(
            g * (_MERGE_INSTR_PER_ENTRY + _MERGE_PROBE_SCALE * t)
            for t, g in enumerate(local_group_counts)
        )
        merge_instr = probe_instr + cross_edges * _EDGE_INSTR
        execution.add(PhaseWork(
            phase=PHASE_REDUCTION,
            per_thread_instructions=serial_only(merge_instr),
            per_thread_reads=serial_only(table_entries + cross_edges),
            per_thread_writes=serial_only(table_entries),
            shared_reads=serial_only(
                # entries contributed by remote threads are coherence misses
                table_entries - (local_group_counts[0] if local_group_counts else 0)
                + cross_edges
            ),
        ))

        # ── serial: final group renumbering and stats ─────────────────────
        unique_roots, group_of = np.unique(roots[grouped_mask], return_inverse=True)
        groups = np.full(n, -1, dtype=np.int64)
        groups[grouped_mask] = group_of
        execution.add(PhaseWork(
            phase=PHASE_SERIAL,
            per_thread_instructions=serial_only(int(unique_roots.size) * 4 + 40),
            per_thread_reads=serial_only(int(unique_roots.size)),
            per_thread_writes=serial_only(int(unique_roots.size)),
        ))

        execution.outputs = {
            "groups": groups,
            "n_groups": int(unique_roots.size),
            "density": density,
            "roots": roots,
            "cross_edges": cross_edges,
            "table_entries": table_entries,
        }
        return execution
