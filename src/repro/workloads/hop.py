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
returns what ``cKDTree.query`` returns, bit for bit.

Neighbours, density, hop chains, the grouping and the slab order do not
depend on the thread count: they are the canonical run, computed once per
workload identity.  Per thread count, only the slab boundaries move, so
only each slab's local group count and the cross-slab hop edges are
counted anew.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import check_positive_int
from repro.workloads.base import (
    PHASE_INIT,
    PHASE_PARALLEL,
    PHASE_REDUCTION,
    PHASE_SERIAL,
    CanonicalRun,
    ClusteringWorkloadBase,
    PhaseWork,
    WorkloadExecution,
    master_only,
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

    # ── execution ─────────────────────────────────────────────────────────
    def _work_items(self) -> "tuple[int, str]":
        return self.dataset.n_particles, "particles"

    def _canonical_run(self) -> CanonicalRun:
        """Neighbours, density, hop chains and grouping (single pass — HOP
        is not iterative like the center-based methods).

        ``state`` holds what the per-thread-count merge accounting reads,
        in slab order (particles sorted along the first axis):
        ``total_hops``, each particle's root (-1 when ungrouped), and the
        slab position of each particle's next hop.
        """
        ds = self.dataset
        n = ds.n_particles
        dists, neighbors = knn(ds.positions, self.n_neighbors + 1)
        # smoothed density: inverse-distance-weighted neighbour masses
        eps = 1e-9
        weights = 1.0 / (dists[:, 1:] ** 2 + eps)
        density = (weights * ds.masses[neighbors[:, 1:]]).sum(axis=1)

        # each particle hops to its densest candidate (itself included, in
        # column 0); particles denser than all neighbours are maxima
        next_hop = neighbors[np.arange(n), np.argmax(density[neighbors], axis=1)]
        roots = next_hop.copy()
        total_hops = n  # every particle does at least its own lookup
        changed = True
        while changed:
            compressed = roots[roots]
            changed = bool(np.any(compressed != roots))
            total_hops += int(np.count_nonzero(compressed != roots))
            roots = compressed

        # background suppression: low-density particles stay ungrouped
        threshold = float(np.quantile(density, self.density_threshold_quantile))
        grouped_mask = density >= threshold
        unique_roots, group_of = np.unique(roots[grouped_mask], return_inverse=True)
        groups = np.full(n, -1, dtype=np.int64)
        groups[grouped_mask] = group_of

        # domain decomposition: slab-partition along the first axis so each
        # thread owns a spatially coherent region (cross-partition edges
        # then scale with the slab boundaries, as on a real N-body code)
        order = np.argsort(ds.positions[:, 0], kind="stable")
        slab_position = np.empty(n, dtype=np.int64)
        slab_position[order] = np.arange(n)
        slab_roots = np.where(grouped_mask, roots, -1)[order]
        next_slab_position = slab_position[next_hop[order]]
        return CanonicalRun(1, {
            "groups": groups,
            "n_groups": int(unique_roots.size),
            "density": density,
            "roots": roots,
        }, state=(total_hops, slab_roots, next_slab_position))

    def _account(self, run: CanonicalRun, execution: WorkloadExecution) -> None:
        """Init, tree build, density and hop passes over each thread's
        slab, the master's merge of the per-slab group tables and
        cross-slab hop edges, and the final renumbering.  The merge counts
        join the execution's ``outputs`` as ``table_entries`` and
        ``cross_edges``."""
        p = execution.n_threads
        n = self.dataset.n_particles
        k = self.n_neighbors
        total_hops, slab_roots, next_slab_position = run.state
        levels = max(1, int(np.ceil(np.log2(n))))
        counts = self.per_thread_counts(n, p).tolist()

        # ── init (serial): bounding box, allocation ──────────────────────
        execution.add(PhaseWork(
            phase=PHASE_INIT,
            per_thread_instructions=master_only(n // 8 + 60, p),
            per_thread_reads=master_only(n // 8, p),
            per_thread_writes=master_only(20, p),
        ))

        # ── tree build (parallel, imperfectly scalable) ──────────────────
        # each thread builds its subtree ((n/p)·levels work) but the top
        # log2(p) split levels scan the whole input on every participating
        # thread — the non-scaling term that caps hop's speedup (~13.5@16).
        top_levels = max(1, int(np.ceil(np.log2(p)))) if p > 1 else 0
        execution.add(PhaseWork(
            phase=PHASE_PARALLEL,
            per_thread_instructions=tuple(
                c * levels * _TREE_INSTR_PER_LEVEL
                + (n // p) * top_levels * _TREE_INSTR_PER_LEVEL
                for c in counts
            ),
            per_thread_reads=tuple(c * levels for c in counts),
            per_thread_writes=tuple(c * 2 for c in counts),
        ))

        # ── density (parallel) ────────────────────────────────────────────
        execution.add(PhaseWork(
            phase=PHASE_PARALLEL,
            per_thread_instructions=tuple(
                c * (k * _DENSITY_INSTR_PER_NEIGH + levels * _QUERY_INSTR_PER_LEVEL)
                for c in counts
            ),
            per_thread_reads=tuple(c * k for c in counts),
            per_thread_writes=tuple(counts),
        ))

        # ── hop (parallel pointer chasing) ────────────────────────────────
        execution.add(PhaseWork(
            phase=PHASE_PARALLEL,
            per_thread_instructions=tuple(
                c * (total_hops // n + 1) * _HOP_INSTR_PER_STEP for c in counts
            ),
            per_thread_reads=tuple(c * 2 for c in counts),
            per_thread_writes=tuple(counts),
        ))

        # ── merge (serial reduction on the master) ────────────────────────
        # per-thread local group tables: unique roots within each slab
        slabs = self.partition(n, p)
        local_group_counts = []
        for sl in slabs:
            r = slab_roots[sl]
            local_group_counts.append(int(np.unique(r[r >= 0]).size))
        table_entries = sum(local_group_counts)
        # cross-partition hop edges the master must resolve (slab owners)
        owner = np.repeat(np.arange(p), counts)
        cross_edges = int(np.count_nonzero(owner != owner[next_slab_position]))
        # probe cost grows with the already-accumulated global table: the
        # t-th table's entries probe a structure holding ~t earlier tables —
        # the superlinear, memory-bound component the paper observes.
        probe_instr = sum(
            g * (_MERGE_INSTR_PER_ENTRY + _MERGE_PROBE_SCALE * t)
            for t, g in enumerate(local_group_counts)
        )
        execution.add(PhaseWork(
            phase=PHASE_REDUCTION,
            per_thread_instructions=master_only(probe_instr + cross_edges * _EDGE_INSTR, p),
            per_thread_reads=master_only(table_entries + cross_edges, p),
            per_thread_writes=master_only(table_entries, p),
            shared_reads=master_only(
                # entries contributed by remote threads are coherence misses
                table_entries - local_group_counts[0] + cross_edges, p
            ),
        ))

        # ── serial: final group renumbering and stats ─────────────────────
        n_groups = run.outputs["n_groups"]
        execution.add(PhaseWork(
            phase=PHASE_SERIAL,
            per_thread_instructions=master_only(n_groups * 4 + 40, p),
            per_thread_reads=master_only(n_groups, p),
            per_thread_writes=master_only(n_groups, p),
        ))
        execution.outputs["cross_edges"] = cross_edges
        execution.outputs["table_entries"] = table_entries
