"""A frozen copy of the workloads' per-thread-count ``execute``, as a test-only oracle.

:meth:`repro.workloads.base.ClusteringWorkloadBase.execute` runs each
workload identity's numerics once (the canonical run) and derives every
thread count's :class:`~repro.workloads.base.PhaseWork` records from it.
This module keeps the four ``execute`` methods as they stood before that
split: the full numerics partitioned over ``n_threads``, the reduction of
one partial per thread, and the accounting recorded alongside.  The
reduction strategies and the instruction-cost constants are frozen here
too.  ``tests/workloads/test_execute_oracle.py`` demands that the live
phase records and ``n_iterations`` equal this module's.

Only the k-NN search (``repro.workloads.neighbors.knn``, pinned by its
own ``cKDTree`` oracle) and the workloads' knobs and datasets are read
from the live code.

Do not optimise or "fix" this file: its value is that it does not change.
"""

from __future__ import annotations

import math

import numpy as np

from repro.workloads.base import (
    PHASE_INIT,
    PHASE_PARALLEL,
    PHASE_REDUCTION,
    PHASE_SERIAL,
    PhaseWork,
    WorkloadExecution,
)
from repro.workloads.neighbors import knn

__all__ = ["execute"]


# ── partitioning ──────────────────────────────────────────────────────────


def partition(n_items, n_threads):
    base, extra = divmod(n_items, n_threads)
    slices = []
    start = 0
    for t in range(n_threads):
        size = base + (1 if t < extra else 0)
        slices.append(slice(start, start + size))
        start += size
    return slices


def per_thread_counts(n_items, n_threads):
    return np.array(
        [s.stop - s.start for s in partition(n_items, n_threads)], dtype=np.int64
    )


# ── reduction strategies ──────────────────────────────────────────────────


def serial_reduce(partials):
    arrays = [np.asarray(a, dtype=np.float64) for a in partials]
    total = arrays[0].copy()
    for a in arrays[1:]:
        total += a
    x = int(np.prod(arrays[0].shape)) if arrays[0].shape else 1
    p = len(arrays)
    return total, (x * p, 0, x * (p - 1))


def tree_reduce(partials):
    arrays = [np.asarray(a, dtype=np.float64) for a in partials]
    p = len(arrays)
    x = int(np.prod(arrays[0].shape)) if arrays[0].shape else 1
    live = [a.copy() for a in arrays]
    messages = 0
    while len(live) > 1:
        nxt = []
        for i in range(0, len(live) - 1, 2):
            nxt.append(live[i] + live[i + 1])
            messages += x
        if len(live) % 2 == 1:
            nxt.append(live[-1])
        live = nxt
    rounds = max(1, math.ceil(math.log2(p))) if p > 1 else 1
    off_critical = max(0, x * (p - 1) - x * rounds)
    per_thread = math.ceil(off_critical / (p - 1)) if p > 1 else 0
    return live[0], (x * rounds, per_thread, messages)


def parallel_reduce(partials):
    arrays = [np.asarray(a, dtype=np.float64) for a in partials]
    p = len(arrays)
    x = int(np.prod(arrays[0].shape)) if arrays[0].shape else 1
    flat = np.stack([a.ravel() for a in arrays])
    total_flat = np.zeros(flat.shape[1], dtype=np.float64)
    for t in range(p):
        total_flat[t::p] = flat[:, t::p].sum(axis=0)
    total = total_flat.reshape(arrays[0].shape)
    messages = x * (p - 1) * 2
    per_thread = (x // p + (1 if x % p else 0)) * p
    return total, (0, per_thread, messages)


STRATEGIES = {"serial": serial_reduce, "tree": tree_reduce, "parallel": parallel_reduce}


def _reduction_phase(strategy, costs, n_threads, combine_instr, master_writes):
    """The merging-phase record, as each execute built it inline."""
    serial_ops = sum(c[0] for c in costs)
    parallel_ops = sum(c[1] for c in costs)
    messages = sum(c[2] for c in costs)
    red_instr = [parallel_ops * combine_instr] * n_threads
    red_reads = [parallel_ops] * n_threads
    if serial_ops:
        red_instr[0] = serial_ops * combine_instr
        red_reads[0] = serial_ops
    shared = [messages // n_threads] * n_threads
    if strategy == "serial":
        shared = [0] * n_threads
        shared[0] = messages
    return PhaseWork(
        phase=PHASE_REDUCTION,
        per_thread_instructions=tuple(red_instr),
        per_thread_reads=tuple(red_reads),
        per_thread_writes=tuple(
            master_writes if t == 0 else 0 for t in range(n_threads)
        ),
        shared_reads=tuple(shared),
    )


def _serial_only(n_threads):
    return lambda v: tuple(int(v) if t == 0 else 0 for t in range(n_threads))


# ── kmeans and fuzzy ──────────────────────────────────────────────────────


def _initial_centers(wl, rng):
    ds = wl.dataset
    C = ds.n_centers
    if wl.init == "random":
        idx = rng.choice(ds.n_points, size=C, replace=False)
        return ds.points[idx].copy()
    centers = [ds.points[rng.integers(ds.n_points)]]
    d2 = ((ds.points - centers[0]) ** 2).sum(axis=1)
    for _ in range(C - 1):
        probs = d2 / d2.sum() if d2.sum() > 0 else np.full(ds.n_points, 1 / ds.n_points)
        centers.append(ds.points[rng.choice(ds.n_points, p=probs)])
        d2 = np.minimum(d2, ((ds.points - centers[-1]) ** 2).sum(axis=1))
    return np.array(centers)


def kmeans_execute(wl, n_threads):
    ds = wl.dataset
    C, D = ds.n_centers, ds.n_dims
    rng = np.random.default_rng(wl.seed)
    reduce_fn = STRATEGIES[wl.reduction_strategy]
    execution = WorkloadExecution(workload="kmeans", n_threads=n_threads, n_iterations=0)
    serial_only = _serial_only(n_threads)
    centers = _initial_centers(wl, rng)
    execution.add(PhaseWork(
        phase=PHASE_INIT,
        per_thread_instructions=serial_only(C * D * 2 + 50),
        per_thread_reads=serial_only(C * D),
        per_thread_writes=serial_only(C * D),
    ))
    slices = partition(ds.n_points, n_threads)
    counts_per_thread = per_thread_counts(ds.n_points, n_threads)
    per_point = C * D * 3 + C * 2 + D * 2 + 4
    for iteration in range(wl.max_iterations):
        partial_sums, partial_counts = [], []
        for sl in slices:
            points = ds.points[sl]
            d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            assign = np.argmin(d2, axis=1)
            ps = np.zeros((C, D), dtype=np.float64)
            np.add.at(ps, assign, points)
            partial_sums.append(ps)
            partial_counts.append(np.bincount(assign, minlength=C).astype(np.float64))
        execution.add(PhaseWork(
            phase=PHASE_PARALLEL,
            per_thread_instructions=tuple(int(n) * per_point for n in counts_per_thread),
            per_thread_reads=tuple(int(n) * D for n in counts_per_thread),
            per_thread_writes=tuple(int(n) * 2 for n in counts_per_thread),
        ))
        merged_sums, cost_s = reduce_fn(partial_sums)
        merged_counts, cost_c = reduce_fn(partial_counts)
        execution.add(_reduction_phase(
            wl.reduction_strategy, (cost_s, cost_c), n_threads, 2, C * (D + 1)
        ))
        safe_counts = np.maximum(merged_counts, 1.0)
        new_centers = merged_sums / safe_counts[:, None]
        empty = merged_counts < 0.5
        new_centers[empty] = centers[empty]
        movement = float(np.abs(new_centers - centers).sum())
        centers = new_centers
        execution.add(PhaseWork(
            phase=PHASE_SERIAL,
            per_thread_instructions=serial_only(C * D * 3 + C),
            per_thread_reads=serial_only(C * D),
            per_thread_writes=serial_only(C * D),
        ))
        execution.n_iterations = iteration + 1
        if movement < wl.tolerance:
            break
    return execution


def fuzzy_execute(wl, n_threads):
    ds = wl.dataset
    C, D = ds.n_centers, ds.n_dims
    rng = np.random.default_rng(wl.seed)
    reduce_fn = STRATEGIES[wl.reduction_strategy]
    execution = WorkloadExecution(workload="fuzzy", n_threads=n_threads, n_iterations=0)
    serial_only = _serial_only(n_threads)
    centers = _initial_centers(wl, rng)
    execution.add(PhaseWork(
        phase=PHASE_INIT,
        per_thread_instructions=serial_only(C * D * 2 + 80),
        per_thread_reads=serial_only(C * D),
        per_thread_writes=serial_only(C * D),
    ))
    slices = partition(ds.n_points, n_threads)
    counts_per_thread = per_thread_counts(ds.n_points, n_threads)
    per_point = C * D * 3 + C * C * 4 + C * D * 3 + 6
    power = 1.0 / (wl.fuzziness - 1.0)
    for iteration in range(wl.max_iterations):
        numers, denoms = [], []
        for sl in slices:
            points = ds.points[sl]
            d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2) + 1e-12
            inv = d2 ** (-power)
            u = inv / inv.sum(axis=1, keepdims=True)
            w = u ** wl.fuzziness
            numers.append(w.T @ points)
            denoms.append(w.sum(axis=0))
        execution.add(PhaseWork(
            phase=PHASE_PARALLEL,
            per_thread_instructions=tuple(int(n) * per_point for n in counts_per_thread),
            per_thread_reads=tuple(int(n) * D for n in counts_per_thread),
            per_thread_writes=tuple(int(n) * 2 for n in counts_per_thread),
        ))
        merged_numer, cost_n = reduce_fn(numers)
        merged_denom, cost_d = reduce_fn(denoms)
        execution.add(_reduction_phase(
            wl.reduction_strategy, (cost_n, cost_d), n_threads, 2, C * (D + 1)
        ))
        new_centers = merged_numer / np.maximum(merged_denom, 1e-12)[:, None]
        movement = float(np.abs(new_centers - centers).sum())
        centers = new_centers
        execution.add(PhaseWork(
            phase=PHASE_SERIAL,
            per_thread_instructions=serial_only(C * D * 3 + C),
            per_thread_reads=serial_only(C * D),
            per_thread_writes=serial_only(C * D),
        ))
        execution.n_iterations = iteration + 1
        if movement < wl.tolerance:
            break
    return execution


# ── hop ───────────────────────────────────────────────────────────────────


def hop_execute(wl, n_threads):
    ds = wl.dataset
    n = ds.n_particles
    k = wl.n_neighbors
    levels = max(1, int(np.ceil(np.log2(n))))
    execution = WorkloadExecution(workload="hop", n_threads=n_threads, n_iterations=1)
    serial_only = _serial_only(n_threads)
    counts = per_thread_counts(n, n_threads)
    slices = partition(n, n_threads)
    order = np.argsort(ds.positions[:, 0], kind="stable")
    execution.add(PhaseWork(
        phase=PHASE_INIT,
        per_thread_instructions=serial_only(n // 8 + 60),
        per_thread_reads=serial_only(n // 8),
        per_thread_writes=serial_only(20),
    ))
    top_levels = max(1, int(np.ceil(np.log2(n_threads)))) if n_threads > 1 else 0
    execution.add(PhaseWork(
        phase=PHASE_PARALLEL,
        per_thread_instructions=tuple(
            int(c) * levels * 8 + (n // max(n_threads, 1)) * top_levels * 8
            for c in counts
        ),
        per_thread_reads=tuple(int(c) * levels for c in counts),
        per_thread_writes=tuple(int(c) * 2 for c in counts),
    ))
    dists, neighbors = knn(ds.positions, k + 1)
    weights = 1.0 / (dists[:, 1:] ** 2 + 1e-9)
    density = (weights * ds.masses[neighbors[:, 1:]]).sum(axis=1)
    execution.add(PhaseWork(
        phase=PHASE_PARALLEL,
        per_thread_instructions=tuple(int(c) * (k * 12 + levels * 6) for c in counts),
        per_thread_reads=tuple(int(c) * k for c in counts),
        per_thread_writes=tuple(int(c) for c in counts),
    ))
    cand_density = density[neighbors]
    next_hop = neighbors[np.arange(n), np.argmax(cand_density, axis=1)]
    roots = next_hop.copy()
    total_hops = n
    changed = True
    while changed:
        compressed = roots[roots]
        changed = bool(np.any(compressed != roots))
        total_hops += int(np.count_nonzero(compressed != roots))
        roots = compressed
    execution.add(PhaseWork(
        phase=PHASE_PARALLEL,
        per_thread_instructions=tuple(int(c) * (total_hops // n + 1) * 5 for c in counts),
        per_thread_reads=tuple(int(c) * 2 for c in counts),
        per_thread_writes=tuple(int(c) for c in counts),
    ))
    threshold = float(np.quantile(density, wl.density_threshold_quantile))
    grouped_mask = density >= threshold
    local_group_counts = []
    for sl in slices:
        members = order[sl]
        r = roots[members][grouped_mask[members]]
        local_group_counts.append(int(np.unique(r).size))
    table_entries = int(sum(local_group_counts))
    owner = np.empty(n, dtype=np.int64)
    for t, sl in enumerate(slices):
        owner[order[sl.start:sl.stop]] = t
    cross_edges = int(np.count_nonzero(owner != owner[next_hop]))
    probe_instr = sum(g * (6 + 3 * t) for t, g in enumerate(local_group_counts))
    execution.add(PhaseWork(
        phase=PHASE_REDUCTION,
        per_thread_instructions=serial_only(probe_instr + cross_edges * 8),
        per_thread_reads=serial_only(table_entries + cross_edges),
        per_thread_writes=serial_only(table_entries),
        shared_reads=serial_only(
            table_entries - (local_group_counts[0] if local_group_counts else 0)
            + cross_edges
        ),
    ))
    unique_roots = np.unique(roots[grouped_mask])
    execution.add(PhaseWork(
        phase=PHASE_SERIAL,
        per_thread_instructions=serial_only(int(unique_roots.size) * 4 + 40),
        per_thread_reads=serial_only(int(unique_roots.size)),
        per_thread_writes=serial_only(int(unique_roots.size)),
    ))
    return execution


# ── histogram ─────────────────────────────────────────────────────────────


def histogram_execute(wl, n_threads):
    rng = np.random.default_rng(wl.seed)
    n_bump = wl.n_items // 3
    background = rng.integers(0, wl.n_bins, size=wl.n_items - 2 * n_bump)
    bump1 = np.clip(
        rng.normal(wl.n_bins * 0.25, wl.n_bins * 0.03, n_bump), 0, wl.n_bins - 1
    ).astype(np.int64)
    bump2 = np.clip(
        rng.normal(wl.n_bins * 0.7, wl.n_bins * 0.05, n_bump), 0, wl.n_bins - 1
    ).astype(np.int64)
    data = np.concatenate([background, bump1, bump2])
    reduce_fn = STRATEGIES[wl.reduction_strategy]
    ex = WorkloadExecution(workload="histogram", n_threads=n_threads, n_iterations=1)
    master = _serial_only(n_threads)
    ex.add(PhaseWork(
        phase=PHASE_INIT,
        per_thread_instructions=master(wl.n_bins + 40),
        per_thread_reads=master(0),
        per_thread_writes=master(wl.n_bins),
    ))
    counts = per_thread_counts(wl.n_items, n_threads)
    slices = partition(wl.n_items, n_threads)
    partials = [
        np.bincount(data[sl], minlength=wl.n_bins).astype(np.float64) for sl in slices
    ]
    ex.add(PhaseWork(
        phase=PHASE_PARALLEL,
        per_thread_instructions=tuple(int(c) * 6 for c in counts),
        per_thread_reads=tuple(int(c) for c in counts),
        per_thread_writes=tuple(int(c) for c in counts),
    ))
    _, cost = reduce_fn(partials)
    ex.add(_reduction_phase(wl.reduction_strategy, (cost,), n_threads, 2, wl.n_bins))
    ex.add(PhaseWork(
        phase=PHASE_SERIAL,
        per_thread_instructions=master(wl.n_bins * 2),
        per_thread_reads=master(wl.n_bins),
        per_thread_writes=master(wl.n_bins),
    ))
    return ex


_EXECUTE = {
    "kmeans": kmeans_execute,
    "fuzzy": fuzzy_execute,
    "hop": hop_execute,
    "histogram": histogram_execute,
}


def execute(workload, n_threads):
    """The execution record the pre-split ``workload.execute(n_threads)``
    returned, without ``outputs``."""
    return _EXECUTE[workload.name](workload, n_threads)
