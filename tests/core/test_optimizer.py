"""Unit tests for the design-space explorer."""

import numpy as np
import pytest

from repro.core import optimizer
from repro.core.classes import get_class
from repro.core.params import AppParams


class TestCompareArchitectures:
    def test_paper_headline_comparison(self):
        # non-emb / moderate / high: extended model says ACMP 43.3 vs CMP
        # 36.2; Amdahl says 162-165 vs 79.7 (Section V.D.2).
        p = get_class("non-emb", "moderate", "high").params()
        cmp_ = optimizer.compare_architectures(p, 256)
        assert cmp_.symmetric.speedup == pytest.approx(36.2, abs=0.1)
        assert cmp_.asymmetric.speedup == pytest.approx(43.3, abs=0.1)
        assert cmp_.amdahl_symmetric == pytest.approx(79.7, abs=0.1)
        assert cmp_.amdahl_asymmetric == pytest.approx(164.5, abs=0.5)

    def test_advantage_ratios(self):
        p = get_class("non-emb", "moderate", "high").params()
        cmp_ = optimizer.compare_architectures(p, 256)
        # reduction overhead shrinks the ACMP advantage from >2x to ~1.2x
        assert cmp_.amdahl_speedup_ratio > 2.0
        assert cmp_.acmp_speedup_ratio < 1.3

    def test_low_overhead_keeps_acmp_advantage(self):
        p = get_class("non-emb", "high", "low").params()
        assert optimizer.acmp_advantage(p, 256) > 1.5


class TestOptimalRMap:
    def test_optimal_r_grows_with_overhead(self):
        grid = optimizer.optimal_r_map(
            f=0.99, n=256,
            fcon_shares=[0.60], fored_shares=[0.10, 0.40, 0.80],
        )
        row = grid[0]
        assert np.all(np.diff(row) >= 0)
        assert row[-1] > row[0]

    def test_shape(self):
        grid = optimizer.optimal_r_map(
            f=0.999, n=256, fcon_shares=[0.9, 0.6], fored_shares=[0.1, 0.8]
        )
        assert grid.shape == (2, 2)


class TestDesignGrid:
    def test_sorted_by_speedup(self):
        p = AppParams(f=0.99, fcon_share=0.6, fored_share=0.8)
        pts = optimizer.optimal_design_grid(p, 256)
        speeds = [q.speedup for q in pts]
        assert speeds == sorted(speeds, reverse=True)

    def test_contains_both_architectures(self):
        p = AppParams(f=0.99, fcon_share=0.6, fored_share=0.8)
        pts = optimizer.optimal_design_grid(p, 256)
        archs = {q.architecture for q in pts}
        assert archs == {"sym", "asym"}

    def test_comm_model_grid_lowers_top_speedup(self):
        p = AppParams(f=0.99, fcon_share=0.6, fored_share=0.8)
        plain = optimizer.optimal_design_grid(p, 256)[0].speedup
        with_comm = optimizer.optimal_design_grid(p, 256, include_comm=True)[0].speedup
        # comparable magnitudes; comm model peaks at 51.6, Eq 4/5 at 43.3
        assert 0.5 < with_comm / plain < 2.0

    def test_core_counts_consistent(self):
        p = AppParams(f=0.99, fcon_share=0.6, fored_share=0.8)
        for q in optimizer.optimal_design_grid(p, 256):
            if q.architecture == "sym":
                assert q.cores == pytest.approx(256 / q.r)
            else:
                assert q.cores == pytest.approx((256 - q.rl) / q.r + 1)


class TestParetoFront:
    def test_front_is_monotone(self):
        p = AppParams(f=0.999, fcon_share=0.6, fored_share=0.1)
        front = optimizer.pareto_front(optimizer.optimal_design_grid(p, 256))
        cores = [q.cores for q in front]
        speeds = [q.speedup for q in front]
        assert cores == sorted(cores, reverse=True)
        assert speeds == sorted(speeds)

    def test_front_members_not_dominated(self):
        p = AppParams(f=0.99, fcon_share=0.9, fored_share=0.8)
        pts = optimizer.optimal_design_grid(p, 256)
        front = optimizer.pareto_front(pts)
        for q in front:
            dominated = any(
                (o.cores > q.cores and o.speedup > q.speedup) for o in pts
            )
            assert not dominated
