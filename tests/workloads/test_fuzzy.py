"""Unit tests for the fuzzy c-means workload."""

import numpy as np
import pytest

from repro.workloads.base import PHASE_PARALLEL, PHASE_REDUCTION
from repro.workloads.datasets import make_blobs
from repro.workloads.fuzzy import FuzzyCMeansWorkload
from repro.workloads.kmeans import KMeansWorkload
from tests.workloads.conftest import serial_instruction_fraction


@pytest.fixture(scope="module")
def dataset():
    return make_blobs(500, 5, 4, seed=5, spread=0.04)


class TestNumerics:
    def test_memberships_are_a_distribution(self, dataset):
        ex = FuzzyCMeansWorkload(dataset, max_iterations=5).execute(2)
        u = ex.outputs["memberships"]
        assert u.shape == (dataset.n_points, dataset.n_centers)
        assert np.all(u >= 0)
        assert np.allclose(u.sum(axis=1), 1.0)

    def test_recovers_true_centers(self, dataset):
        ex = FuzzyCMeansWorkload(dataset, max_iterations=30, seed=2).execute(1)
        found = ex.outputs["centers"]
        d = np.linalg.norm(
            dataset.true_centers[:, None, :] - found[None, :, :], axis=2
        ).min(axis=1)
        assert d.max() < 0.12

    def test_result_independent_of_thread_count(self, dataset):
        wl = FuzzyCMeansWorkload(dataset, max_iterations=6, seed=2)
        c1 = wl.execute(1).outputs["centers"]
        c8 = wl.execute(8).outputs["centers"]
        assert np.allclose(c1, c8, atol=1e-7)

    def test_fuzziness_validation(self, dataset):
        with pytest.raises(ValueError):
            FuzzyCMeansWorkload(dataset, fuzziness=1.0)

    def test_kmeanspp_init_accepted(self, dataset):
        ex = FuzzyCMeansWorkload(
            dataset, max_iterations=5, seed=2, init="kmeans++"
        ).execute(1)
        assert ex.outputs["centers"].shape == (dataset.n_centers, dataset.n_dims)

    def test_unknown_init_rejected(self, dataset):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            FuzzyCMeansWorkload(dataset, init="grid")

    def test_high_fuzziness_softens_memberships(self, dataset):
        crisp = FuzzyCMeansWorkload(dataset, fuzziness=1.5, max_iterations=10, seed=2)
        soft = FuzzyCMeansWorkload(dataset, fuzziness=4.0, max_iterations=10, seed=2)
        u_crisp = crisp.execute(1).outputs["memberships"]
        u_soft = soft.execute(1).outputs["memberships"]
        assert u_soft.max(axis=1).mean() < u_crisp.max(axis=1).mean()


class TestPhaseStructure:
    def test_more_parallel_work_per_point_than_kmeans(self, dataset):
        # the paper measures a much smaller serial fraction for fuzzy than
        # kmeans on the same data: fuzzy's per-point work is bigger while
        # the merge size is the same.
        fz = FuzzyCMeansWorkload(dataset, max_iterations=1, tolerance=1e-12).execute(1)
        km = KMeansWorkload(dataset, max_iterations=1, tolerance=1e-12).execute(1)
        fz_par = next(w for w in fz.phases if w.phase == PHASE_PARALLEL)
        km_par = next(w for w in km.phases if w.phase == PHASE_PARALLEL)
        assert sum(fz_par.per_thread_instructions) > sum(km_par.per_thread_instructions)
        assert serial_instruction_fraction(fz) < serial_instruction_fraction(km)

    def test_reduction_grows_linearly(self, dataset):
        def master_red(p):
            ex = FuzzyCMeansWorkload(
                dataset, max_iterations=1, tolerance=1e-12
            ).execute(p)
            red = next(w for w in ex.phases if w.phase == PHASE_REDUCTION)
            return red.per_thread_instructions[0]

        assert master_red(8) == pytest.approx(8 * master_red(1), rel=0.01)

    def test_reduction_size_matches_kmeans(self, dataset):
        # same C and D → same x (C·(D+1))
        fz = FuzzyCMeansWorkload(dataset)
        km = KMeansWorkload(dataset)
        assert fz.reduction_elements == km.reduction_elements
