"""Integration tests for the extension experiments."""

import pytest

from repro.experiments.registry import EXPERIMENTS, run_experiment


class TestRegistry:
    def test_extensions_registered(self):
        for eid in ("ext-critical", "ext-energy", "ext-scaled",
                    "ext-contention", "ext-acmp-sim"):
            assert eid in EXPERIMENTS


class TestExtensionDrivers:
    def test_critical(self):
        report = run_experiment("ext-critical")
        assert report.all_match, report.render()

    def test_energy(self):
        report = run_experiment("ext-energy")
        assert report.all_match, report.render()

    def test_scaled(self):
        report = run_experiment("ext-scaled")
        assert report.all_match, report.render()

    def test_contention(self):
        report = run_experiment("ext-contention")
        assert report.all_match, report.render()

    def test_acmp_sim(self):
        report = run_experiment("ext-acmp-sim", scale=0.05)
        assert report.all_match, report.render()

    def test_crossover_sim(self):
        report = run_experiment("ext-crossover-sim")
        assert report.all_match, report.render()

    def test_falsesharing(self):
        report = run_experiment("ext-falsesharing")
        assert report.all_match, report.render()

    def test_locked_reduction(self):
        report = run_experiment("ext-locked-reduction")
        assert report.all_match, report.render()

    def test_mix(self):
        report = run_experiment("ext-mix")
        assert report.all_match, report.render()


class TestExtensionContent:
    def test_scaled_report_exposes_saturation(self):
        report = run_experiment("ext-scaled")
        lin = report.raw["linear"]
        gus = report.raw["gustafson"]
        assert lin[-1] < gus[-1] / 10  # merging kills weak scaling

    def test_energy_rows_cover_three_objectives(self):
        report = run_experiment("ext-energy")
        for perf_d, edp_d, ppw_d in report.raw["rows"].values():
            assert perf_d.speedup >= edp_d.speedup - 1e-9
            assert ppw_d.perf_per_watt >= edp_d.perf_per_watt - 1e-9
