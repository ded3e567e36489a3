"""Unit tests for the histogram workload."""

import numpy as np
import pytest

from repro.workloads.base import PHASE_PARALLEL, PHASE_REDUCTION
from repro.workloads.histogram import HistogramWorkload
from tests.workloads.conftest import instructions_by_phase


class TestNumerics:
    def test_counts_every_item_once(self):
        wl = HistogramWorkload(n_items=5000, n_bins=64)
        for p in (1, 3, 8):
            assert int(wl.execute(p).outputs["histogram"].sum()) == 5000

    def test_result_independent_of_thread_count(self):
        wl = HistogramWorkload(n_items=4000, n_bins=128, seed=2)
        h1 = wl.execute(1).outputs["histogram"]
        h8 = wl.execute(8).outputs["histogram"]
        assert np.array_equal(h1, h8)

    def test_mode_falls_in_a_bump(self):
        wl = HistogramWorkload(n_items=30000, n_bins=1000, seed=1)
        mode = wl.execute(2).outputs["mode_bin"]
        # the two Gaussian bumps sit at 25% and 70% of the range
        assert (0.2 < mode / 1000 < 0.3) or (0.6 < mode / 1000 < 0.8)

    def test_density_sums_to_one(self):
        wl = HistogramWorkload(n_items=2000, n_bins=32)
        assert wl.execute(4).outputs["density"].sum() == pytest.approx(1.0)

    def test_strategies_agree(self):
        results = [
            HistogramWorkload(
                n_items=3000, n_bins=64, reduction_strategy=s
            ).execute(4).outputs["histogram"]
            for s in ("serial", "tree", "parallel")
        ]
        assert np.array_equal(results[0], results[1])
        assert np.array_equal(results[0], results[2])


class TestPhaseStructure:
    def test_reduction_dominates_more_than_kmeans(self):
        # per-item work is tiny, bins are many: the merge share of serial
        # work towers over kmeans' on comparable sizes
        from repro.workloads.datasets import make_blobs
        from repro.workloads.kmeans import KMeansWorkload

        hist = HistogramWorkload(n_items=10000, n_bins=4096).execute(1)
        km = KMeansWorkload(
            make_blobs(10000, 9, 8, seed=0), max_iterations=1, tolerance=1e-12
        ).execute(1)

        def merge_share(ex):
            by_phase = instructions_by_phase(ex)
            serial = sum(
                v for k, v in by_phase.items() if k != PHASE_PARALLEL
            )
            return by_phase[PHASE_REDUCTION] / serial

        assert merge_share(hist) > merge_share(km)

    def test_reduction_grows_linearly_with_threads(self):
        def master_red(p):
            ex = HistogramWorkload(n_items=4000, n_bins=256).execute(p)
            red = next(w for w in ex.phases if w.phase == PHASE_REDUCTION)
            return red.per_thread_instructions[0]

        assert master_red(8) == pytest.approx(8 * master_red(1), rel=0.01)

    def test_bins_dial_the_overhead(self):
        # more bins = bigger x = heavier merge (the knob the extended
        # model's fored responds to)
        def red_instr(bins):
            ex = HistogramWorkload(n_items=4000, n_bins=bins).execute(4)
            red = next(w for w in ex.phases if w.phase == PHASE_REDUCTION)
            return red.per_thread_instructions[0]

        assert red_instr(4096) > 4 * red_instr(256)


class TestEndToEnd:
    def test_extracted_fored_larger_than_kmeans(self):
        """The whole point of the workload: the histogram's merge-dominated
        profile lands at a much higher reduction share than kmeans."""
        from repro.pipeline import simulate_breakdowns
        from repro.workloads.datasets import make_blobs
        from repro.workloads.instrument import extract_parameters
        from repro.workloads.kmeans import KMeansWorkload

        hist = HistogramWorkload(n_items=20000, n_bins=2048)
        km = KMeansWorkload(
            make_blobs(2000, 9, 8, seed=0), max_iterations=2, tolerance=1e-12
        )
        threads = (1, 2, 4, 8)
        ep_h = extract_parameters(
            simulate_breakdowns(hist, threads, n_cores=8, mem_scale=4), "hist"
        )
        ep_k = extract_parameters(
            simulate_breakdowns(km, threads, n_cores=8, mem_scale=4), "km"
        )
        assert ep_h.fred_share > ep_k.fred_share

    def test_validation(self):
        with pytest.raises(ValueError):
            HistogramWorkload(n_items=0)
        with pytest.raises(ValueError):
            HistogramWorkload(n_items=4).execute(8)
        with pytest.raises(ValueError):
            HistogramWorkload(reduction_strategy="magic")
