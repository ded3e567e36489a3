"""Unit tests for the hardware executor (model backend)."""

import pytest

from repro.hardware.executor import execute_workload, model_breakdown
from repro.hardware.machine_model import XEON_E5520
from repro.workloads.datasets import make_blobs
from repro.workloads.instrument import extract_parameters, serial_growth_curve
from repro.workloads.kmeans import KMeansWorkload


@pytest.fixture(scope="module")
def workload():
    return KMeansWorkload(
        make_blobs(1200, 6, 4, seed=4), max_iterations=4, tolerance=1e-12
    )


@pytest.fixture(scope="module")
def breakdowns(workload):
    return execute_workload(workload, (1, 2, 4, 8))


class TestModelBackend:
    def test_all_thread_counts_present(self, breakdowns):
        assert set(breakdowns) == {1, 2, 4, 8}

    def test_parallel_time_shrinks_with_threads(self, breakdowns):
        assert breakdowns[8].parallel < breakdowns[2].parallel < breakdowns[1].parallel

    def test_reduction_time_grows_with_threads(self, breakdowns):
        # the paper's core observation, on the hardware side
        assert breakdowns[8].reduction > breakdowns[2].reduction > breakdowns[1].reduction

    def test_serial_growth_curve_rises(self, breakdowns):
        curve = serial_growth_curve(breakdowns)
        assert curve[1] == pytest.approx(1.0)
        assert curve[8] > curve[2] > 1.0

    def test_extracted_parameters_sane(self, breakdowns):
        ep = extract_parameters(breakdowns, "kmeans-hw")
        assert 0 < ep.serial_pct < 5
        assert 0 < ep.fred_share < 1
        assert ep.fored_rel > 0

    def test_thread_count_beyond_machine_rejected(self, workload):
        with pytest.raises(ValueError):
            model_breakdown(workload, 16, XEON_E5520)
