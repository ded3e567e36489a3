"""Unit tests for the kmeans workload."""

import numpy as np
import pytest

from repro.workloads.base import (
    PHASE_INIT,
    PHASE_PARALLEL,
    PHASE_REDUCTION,
    PHASE_SERIAL,
)
from repro.workloads.datasets import make_blobs
from repro.workloads.kmeans import KMeansWorkload
from tests.workloads.conftest import serial_instruction_fraction


@pytest.fixture(scope="module")
def dataset():
    return make_blobs(600, 5, 4, seed=3, spread=0.04)


class TestNumerics:
    def test_recovers_true_centers(self, dataset):
        wl = KMeansWorkload(dataset, max_iterations=30, seed=1, init="kmeans++")
        ex = wl.execute(1)
        found = ex.outputs["centers"]
        # each true center has a found center nearby
        d = np.linalg.norm(
            dataset.true_centers[:, None, :] - found[None, :, :], axis=2
        ).min(axis=1)
        assert d.max() < 0.1

    def test_result_independent_of_thread_count(self, dataset):
        wl = KMeansWorkload(dataset, max_iterations=8, seed=1)
        c1 = wl.execute(1).outputs["centers"]
        c4 = wl.execute(4).outputs["centers"]
        assert np.allclose(c1, c4, atol=1e-8)

    def test_inertia_decreases_with_iterations(self, dataset):
        short = KMeansWorkload(dataset, max_iterations=1, seed=1, tolerance=1e-12)
        long = KMeansWorkload(dataset, max_iterations=20, seed=1, tolerance=1e-12)
        assert long.execute(1).outputs["inertia"] <= short.execute(1).outputs["inertia"]

    def test_assignments_cover_all_points(self, dataset):
        ex = KMeansWorkload(dataset, max_iterations=3).execute(2)
        a = ex.outputs["assignments"]
        assert a.shape == (dataset.n_points,)
        assert a.min() >= 0 and a.max() < dataset.n_centers

    def test_convergence_stops_early(self, dataset):
        wl = KMeansWorkload(dataset, max_iterations=100, tolerance=1e-3, seed=1)
        ex = wl.execute(1)
        assert ex.n_iterations < 100


class TestPhaseStructure:
    def test_phase_sequence(self, dataset):
        ex = KMeansWorkload(dataset, max_iterations=2, tolerance=1e-12).execute(2)
        phases = [w.phase for w in ex.phases]
        assert phases[0] == PHASE_INIT
        assert phases[1:4] == [PHASE_PARALLEL, PHASE_REDUCTION, PHASE_SERIAL]
        assert phases.count(PHASE_PARALLEL) == ex.n_iterations

    def test_serial_phases_have_master_only_work(self, dataset):
        ex = KMeansWorkload(dataset, max_iterations=2).execute(4)
        for w in ex.phases:
            if w.phase in (PHASE_INIT, PHASE_REDUCTION, PHASE_SERIAL):
                assert all(i == 0 for i in w.per_thread_instructions[1:]), w.phase
                assert w.per_thread_instructions[0] > 0

    def test_parallel_work_is_balanced(self, dataset):
        ex = KMeansWorkload(dataset, max_iterations=1, tolerance=1e-12).execute(4)
        par = next(w for w in ex.phases if w.phase == PHASE_PARALLEL)
        instr = np.array(par.per_thread_instructions)
        assert instr.max() / instr.min() < 1.02

    def test_reduction_work_grows_linearly_with_threads(self, dataset):
        def master_red(p):
            ex = KMeansWorkload(dataset, max_iterations=1, tolerance=1e-12).execute(p)
            red = next(w for w in ex.phases if w.phase == PHASE_REDUCTION)
            return red.per_thread_instructions[0]

        r1, r2, r8 = master_red(1), master_red(2), master_red(8)
        assert r2 == pytest.approx(2 * r1, rel=0.01)
        assert r8 == pytest.approx(8 * r1, rel=0.01)

    def test_parallel_per_thread_work_shrinks_with_threads(self, dataset):
        def par_instr(p):
            ex = KMeansWorkload(dataset, max_iterations=1, tolerance=1e-12).execute(p)
            w = next(x for x in ex.phases if x.phase == PHASE_PARALLEL)
            return w.per_thread_instructions[0]

        assert par_instr(4) == pytest.approx(par_instr(1) / 4, rel=0.02)

    def test_shared_reads_attributed_to_master_for_serial_strategy(self, dataset):
        ex = KMeansWorkload(dataset, max_iterations=1, tolerance=1e-12).execute(4)
        red = next(w for w in ex.phases if w.phase == PHASE_REDUCTION)
        assert red.shared_reads[0] > 0
        assert all(s == 0 for s in red.shared_reads[1:])

    def test_serial_instruction_fraction_is_tiny(self, dataset):
        ex = KMeansWorkload(dataset, max_iterations=5).execute(1)
        assert serial_instruction_fraction(ex) < 0.02


class TestReductionStrategies:
    def test_tree_strategy_reduces_master_work(self, dataset):
        def master_red(strategy, p=8):
            wl = KMeansWorkload(
                dataset, max_iterations=1, tolerance=1e-12,
                reduction_strategy=strategy,
            )
            ex = wl.execute(p)
            red = next(w for w in ex.phases if w.phase == PHASE_REDUCTION)
            return red.per_thread_instructions[0]

        assert master_red("tree") < master_red("serial")

    def test_all_strategies_same_numeric_result(self, dataset):
        results = {
            s: KMeansWorkload(
                dataset, max_iterations=4, seed=2, reduction_strategy=s
            ).execute(4).outputs["centers"]
            for s in ("serial", "tree", "parallel")
        }
        assert np.allclose(results["serial"], results["tree"])
        assert np.allclose(results["serial"], results["parallel"])

    def test_unknown_strategy_rejected_at_construction(self, dataset):
        with pytest.raises(ValueError):
            KMeansWorkload(dataset, reduction_strategy="magic")


class TestValidation:
    def test_more_threads_than_points(self):
        tiny = make_blobs(4, 2, 2, seed=0)
        with pytest.raises(ValueError):
            KMeansWorkload(tiny).execute(8)

    def test_rejects_zero_iterations(self, dataset):
        with pytest.raises(ValueError):
            KMeansWorkload(dataset, max_iterations=0)
