"""Per-thread-count accounting against the frozen pre-split ``execute``.

:meth:`~repro.workloads.base.ClusteringWorkloadBase.execute` runs a
workload identity's numerics once and derives each thread count's
:class:`~repro.workloads.base.PhaseWork` records from that canonical run.
``tests/workloads/reference_execute.py`` is ``execute`` as it stood
before: the numerics partitioned over ``p`` threads on every call.  Every
test here demands identical phase lists and ``n_iterations``.  For kmeans
and fuzzy the iteration count is the one thing the numerics decide; a
thread count whose partitioned sums converge in a different number of
iterations than the canonical run fails by name.
"""

import itertools

import pytest

from repro.experiments.registry import EXPERIMENTS, declare_units
from repro.pipeline.builders import HARDWARE_MODEL, SWEEP_POINT
from repro.workloads import (
    FuzzyCMeansWorkload,
    HistogramWorkload,
    HopWorkload,
    KMeansWorkload,
    make_blobs,
    make_particles,
)
from tests.workloads import reference_execute

THREADS = (1, 2, 3, 4, 8, 16)
STRATEGIES = ("serial", "tree", "parallel")


def assert_matches_frozen(workload, thread_counts=THREADS, label=""):
    label = label or workload.name
    for p in thread_counts:
        got = workload.execute(p)
        want = reference_execute.execute(workload, p)
        assert got.n_iterations == want.n_iterations, (
            f"{label} p={p}: the frozen execute ran {want.n_iterations} "
            f"iteration(s), the canonical run {got.n_iterations}"
        )
        assert got.workload == want.workload and got.n_threads == p
        assert got.phases == want.phases, f"{label} p={p}: phase records differ"


def _blob_corpus():
    """(label, dataset) pairs: several sizes, dims and center counts."""
    shapes = [(60, 2, 3, 1), (301, 5, 4, 2), (1000, 9, 8, 3)]
    return [
        (f"blobs{n}x{d}c{c}", make_blobs(n, d, c, seed=seed))
        for n, d, c, seed in shapes
    ]


CENTER_CASES = [
    pytest.param(cls, label, ds, strategy, init, iters, tol,
                 id=f"{cls.name}-{label}-{strategy}-{init}-{iters}x{tol}")
    for cls in (KMeansWorkload, FuzzyCMeansWorkload)
    for (label, ds) in _blob_corpus()
    for strategy in STRATEGIES
    for init in ("random", "kmeans++")
    # the library default (converges early) and runall's fixed count
    for iters, tol in ((10, 1e-4), (4, 1e-12))
]


@pytest.mark.parametrize("cls,label,ds,strategy,init,iters,tol", CENTER_CASES)
def test_center_based_workloads(cls, label, ds, strategy, init, iters, tol):
    wl = cls(ds, reduction_strategy=strategy, init=init,
             max_iterations=iters, tolerance=tol)
    assert_matches_frozen(wl, label=f"{cls.name} {label} {strategy} {init}")


@pytest.mark.parametrize("n,halos,k,quantile", [
    (200, 3, 8, 0.2), (500, 8, 12, 0.5), (983, 16, 12, 0.2),
])
def test_hop(n, halos, k, quantile):
    wl = HopWorkload(make_particles(n, n_halos=halos, seed=n), n_neighbors=k,
                     density_threshold_quantile=quantile)
    assert_matches_frozen(wl, label=f"hop n={n} k={k} q={quantile}")


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("n_items,n_bins", [(2000, 256), (777, 1000)])
def test_histogram(strategy, n_items, n_bins):
    wl = HistogramWorkload(n_items=n_items, n_bins=n_bins, seed=5,
                           reduction_strategy=strategy)
    assert_matches_frozen(wl, label=f"histogram {n_items}/{n_bins} {strategy}")


def runall_executions():
    """(workload, thread count) of every sweep-point and hardware-model
    unit a default ``runall`` declares, one workload object per identity."""
    by_identity, points = {}, set()
    for eid in sorted(EXPERIMENTS):
        for unit in declare_units(eid):
            if unit.kind not in (SWEEP_POINT, HARDWARE_MODEL):
                continue
            workload, p = unit.spec[0], unit.spec[1]
            key = repr(workload.identity())
            by_identity.setdefault(key, workload)
            points.add((key, p))
    return [(by_identity[key], p) for key, p in sorted(points)]


def test_every_runall_execution_matches_the_frozen_execute():
    runs = runall_executions()
    assert {w.name for w, _ in runs} == {"kmeans", "fuzzy", "hop", "histogram"}
    for workload, p in runs:
        label = getattr(getattr(workload, "dataset", None), "label", "")
        assert_matches_frozen(workload, (p,), label=f"{workload.name} {label}")


# ── numerics run once per identity ────────────────────────────────────────


@pytest.fixture
def canonical_calls(monkeypatch, fresh_numerics):
    """identity -> how many times its numerics ran."""
    calls: dict = {}
    for cls in (KMeansWorkload, FuzzyCMeansWorkload, HopWorkload, HistogramWorkload):
        real = cls._canonical_run

        def spy(self, _real=real):
            key = repr(self.identity())
            calls[key] = calls.get(key, 0) + 1
            return _real(self)

        monkeypatch.setattr(cls, "_canonical_run", spy)
    return calls


def test_numerics_run_once_per_identity(canonical_calls):
    def build():
        return [
            KMeansWorkload(make_blobs(300, 4, 3, seed=1), max_iterations=3),
            KMeansWorkload(make_blobs(300, 4, 3, seed=1), init="kmeans++"),
            FuzzyCMeansWorkload(make_blobs(300, 4, 3, seed=1), max_iterations=3),
            HopWorkload(make_particles(400, n_halos=3, seed=2), n_neighbors=8),
            HistogramWorkload(n_items=1000, n_bins=64),
        ]

    # two objects per identity (equal data, separately built), every p
    for wl, p in itertools.product(build() + build(), THREADS):
        wl.execute(p)
    assert len(canonical_calls) == 5
    assert set(canonical_calls.values()) == {1}


def test_runall_numerics_run_once_per_identity(canonical_calls):
    runs = runall_executions()
    for workload, p in runs:
        workload.execute(p)
    assert len(canonical_calls) == len({repr(w.identity()) for w, _ in runs})
    assert set(canonical_calls.values()) == {1}
