"""Integration tests: every experiment driver runs and its paper
comparisons hold.

The analytic experiments (fig3/4/5/7, tables 1/3) are exact and fast; the
simulator-backed ones (table2/4, fig2) run at a reduced dataset scale —
their qualitative claims are scale-invariant (Table IV's own argument).
"""

import pytest

from repro.experiments.registry import EXPERIMENTS, get_experiment, run_experiment


class TestRegistry:
    def test_all_paper_artifacts_covered(self):
        for required in ("table1", "table2", "table3", "table4",
                         "fig2", "fig3", "fig4", "fig5", "fig7"):
            assert required in EXPERIMENTS

    def test_unknown_id_raises(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            get_experiment("fig99")


class TestAnalyticDrivers:
    """Exact closed-form experiments: every anchor must hold."""

    def test_table1(self):
        report = run_experiment("table1")
        assert "MESI" in report.render()

    def test_table3(self):
        report = run_experiment("table3")
        assert len(report.tables[0].rows) == 8

    def test_fig3_all_claims_hold(self):
        report = run_experiment("fig3")
        assert report.all_match, report.render()

    def test_fig4_all_anchors_hold(self):
        report = run_experiment("fig4")
        assert report.all_match, report.render()

    def test_fig5_all_anchors_hold(self):
        report = run_experiment("fig5")
        assert report.all_match, report.render()

    def test_fig7_all_anchors_hold(self):
        report = run_experiment("fig7")
        assert report.all_match, report.render()

    def test_fig1_and_fig6_decompositions(self):
        for eid in ("fig1", "fig6"):
            report = run_experiment(eid)
            assert report.all_match, report.render()

    def test_conclusions_grid(self):
        report = run_experiment("conclusions")
        assert report.all_match, report.render()


class TestSimulatorDrivers:
    """Simulator-backed experiments at reduced scale."""

    def test_table2(self):
        report = run_experiment("table2", scale=0.05, thread_counts=(1, 2, 4, 8))
        assert report.all_match, report.render()

    def test_fig2(self):
        # fig2's scalability claims need a dataset big enough that the
        # per-thread work dominates phase overheads at 16 threads
        report = run_experiment(
            "fig2", scale=0.12,
            thread_counts=(1, 2, 4, 8, 16),
            mem_scale=4,
        )
        assert report.all_match, report.render()

    def test_table4(self):
        report = run_experiment(
            "table4", scale=0.04, thread_counts=(1, 2, 4, 8)
        )
        assert report.all_match, report.render()


class TestAblations:
    def test_perf_law(self):
        report = run_experiment("ablation-perf")
        assert report.all_match, report.render()

    def test_topology(self):
        report = run_experiment("ablation-topology")
        assert report.all_match, report.render()

    def test_reduction_strategy(self):
        report = run_experiment(
            "ablation-reduction", scale=0.04, thread_counts=(1, 2, 4, 8)
        )
        assert report.all_match, report.render()

    def test_optimal_r_map(self):
        report = run_experiment("ablation-rmap")
        assert report.all_match, report.render()

    def test_machine_model_robustness(self):
        report = run_experiment(
            "ablation-machine", scale=0.04, thread_counts=(1, 2, 4, 8)
        )
        assert report.all_match, report.render()
