"""Unit tests for the extended merging-phase model (Eqs 4–5).

The `TestPaperAnchors` class pins every numeric value the paper's text
quotes from Figs 4 and 5 — these are the primary regression tests for the
reproduction.
"""

import numpy as np
import pytest

from repro.core import hill_marty, merging
from repro.core.growth import LINEAR, LOG
from repro.core.params import AppParams


def params_for(f: float, con: float, ored: float) -> AppParams:
    return AppParams(f=f, fcon_share=con, fored_share=ored)


class TestPaperAnchors:
    """Numeric values quoted in the paper's Section V text."""

    def test_fig4c_emb_moderate_low_peaks_at_104_5(self):
        # "(0.999, Linear) in graph 4(c) attains a maximum speedup of 104.5
        # for r = 4"
        d = merging.best_symmetric(params_for(0.999, 0.60, 0.10), 256)
        assert d.r == 4.0
        assert d.speedup == pytest.approx(104.5, abs=0.15)

    def test_fig4d_emb_moderate_high_peaks_at_67_1(self):
        # "in graph 4(d) maximum speedup of 67.1 is attained for r = 8"
        d = merging.best_symmetric(params_for(0.999, 0.60, 0.80), 256)
        assert d.r == 8.0
        assert d.speedup == pytest.approx(67.1, abs=0.1)

    def test_fig4d_nonemb_moderate_high_peaks_at_36_2(self):
        # "speedup = 36.2 for Linear under f = 0.99 ... (r = 32)"
        d = merging.best_symmetric(params_for(0.99, 0.60, 0.80), 256)
        assert d.r == 32.0
        assert d.speedup == pytest.approx(36.2, abs=0.1)

    def test_fig4b_nonemb_high_high_peaks_at_47_6(self):
        # "CMPs (Figure 4(b)) yield a maximum speedup of 47.6"
        d = merging.best_symmetric(params_for(0.99, 0.90, 0.80), 256)
        assert d.r == 16.0
        assert d.speedup == pytest.approx(47.6, abs=0.15)

    def test_fig5d_nonemb_high_high_acmp_64_2(self):
        # "ACMPs yield a speedup of 64.2" with r = 4 beating r = 1
        p = params_for(0.99, 0.90, 0.80)
        sp = float(merging.speedup_asymmetric(p, 256, rl=64.0, r=4.0))
        assert sp == pytest.approx(64.2, abs=0.1)
        sizes, curve_r4 = merging.sweep_asymmetric(p, 256, r=4.0)
        _, curve_r1 = merging.sweep_asymmetric(p, 256, r=1.0)
        assert curve_r4.max() > curve_r1.max()

    def test_fig5h_nonemb_moderate_high_acmp_values(self):
        # "perform worse (speedup = 22.6)" for r = 1; "ACMPs yield a maximum
        # speedup of 43.3 (r = 4)"
        p = params_for(0.99, 0.60, 0.80)
        _, curve_r1 = merging.sweep_asymmetric(p, 256, r=1.0)
        _, curve_r4 = merging.sweep_asymmetric(p, 256, r=4.0)
        assert curve_r1.max() == pytest.approx(22.6, abs=0.3)
        assert curve_r4.max() == pytest.approx(43.3, abs=0.1)

    def test_fig5h_acmp_with_many_small_cores_loses_to_symmetric(self):
        # the paper's key inversion: ACMP(r=1) = 22.6 < CMP = 36.2,
        # "contrary to the predictions using Amdahl's Law (162.3 vs 79.7)"
        p = params_for(0.99, 0.60, 0.80)
        _, curve_r1 = merging.sweep_asymmetric(p, 256, r=1.0)
        sym = merging.best_symmetric(p, 256)
        assert curve_r1.max() < sym.speedup
        # while plain Amdahl predicts the opposite ordering:
        hm_asym = hill_marty.speedup_asymmetric(
            p.f, 256, merging.power_of_two_sizes(256)).max()
        _, hm_sym = hill_marty.best_symmetric(p.f, 256)
        assert hm_asym > hm_sym


class TestSymmetricModel:
    def test_no_overhead_reduces_to_hill_marty(self):
        # with fored = 0 the serial cost is constant = 1 - f → exactly Eq 2.
        p = AppParams(f=0.99, fcon_share=0.7, fored_share=0.0)
        sizes = merging.power_of_two_sizes(256)
        ours = merging.speedup_symmetric(p, 256, sizes)
        hm = hill_marty.speedup_symmetric(0.99, 256, sizes)
        assert np.allclose(ours, hm)

    def test_extended_never_exceeds_hill_marty(self):
        # growth only adds serial cost (grow >= 1 ≥ the constant model's
        # implicit factor), so the extended prediction is an upper bound.
        p = params_for(0.99, 0.60, 0.80)
        sizes = merging.power_of_two_sizes(256)
        assert np.all(
            np.asarray(merging.speedup_symmetric(p, 256, sizes))
            <= np.asarray(hill_marty.speedup_symmetric(p.f, 256, sizes)) + 1e-9
        )

    def test_log_growth_dominates_linear(self):
        p = params_for(0.999, 0.60, 0.80)
        sizes = merging.power_of_two_sizes(256)
        lin = np.asarray(merging.speedup_symmetric(p, 256, sizes, LINEAR))
        log = np.asarray(merging.speedup_symmetric(p, 256, sizes, LOG))
        assert np.all(log >= lin - 1e-12)

    def test_fig4_log_growth_lets_emb_apps_use_small_cores(self):
        # "For embarrassingly parallel applications, however, small cores
        # manage to yield the highest speedup" under Log growth (Fig 4(c)).
        p = params_for(0.999, 0.60, 0.10)
        sizes = merging.power_of_two_sizes(256)
        sp = merging.speedup_symmetric(p, 256, sizes, LOG)
        assert sizes[int(np.argmax(sp))] == 1.0

    def test_higher_overhead_pushes_optimum_to_bigger_cores(self):
        # paper conclusion (b)
        low = merging.best_symmetric(params_for(0.99, 0.60, 0.10), 256)
        high = merging.best_symmetric(params_for(0.99, 0.60, 0.80), 256)
        assert high.r > low.r
        assert high.speedup < low.speedup

    def test_256_singleton_cores_never_optimal_under_linear_growth(self):
        # "a design with 256 cores (r = 1 ...) never yields the highest
        # speedup" for any Table III class under linear growth (Fig 4).
        from repro.core.classes import TABLE3_CLASSES

        for cls in TABLE3_CLASSES:
            d = merging.best_symmetric(cls.params(), 256, growth=LINEAR)
            assert d.r > 1.0, cls.key

    def test_serial_term_at_single_core_equals_serial_fraction(self):
        p = params_for(0.99, 0.60, 0.80)
        # r = n → one core → serial cost is fcon + fcred + fored·grow(1) = s,
        # so Eq 4 charges exactly Eq 2's constant serial section
        assert merging.speedup_symmetric(p, 256, 256.0) == pytest.approx(
            hill_marty.speedup_symmetric(p.f, 256, 256.0))

    def test_rejects_invalid_sizes(self):
        p = params_for(0.99, 0.6, 0.8)
        with pytest.raises(ValueError):
            merging.speedup_symmetric(p, 256, 0.0)
        with pytest.raises(ValueError):
            merging.speedup_symmetric(p, 256, 512.0)


class TestAsymmetricModel:
    def test_rl_equals_n_is_single_big_core(self):
        p = params_for(0.99, 0.60, 0.10)
        # one core: parallel throughput perf(n), serial cost s / perf(n)
        sp = float(merging.speedup_asymmetric(p, 256, rl=256.0, r=1.0))
        expected = 1.0 / ((p.serial / 16.0) + p.f / 16.0)
        assert sp == pytest.approx(expected)

    def test_no_overhead_with_unit_small_cores_reduces_to_eq3(self):
        p = AppParams(f=0.99, fcon_share=0.5, fored_share=0.0)
        rl = np.array([4.0, 32.0, 128.0])
        ours = merging.speedup_asymmetric(p, 256, rl, r=1.0)
        hm = hill_marty.speedup_asymmetric(0.99, 256, rl)
        assert np.allclose(ours, hm)

    def test_reduction_participants_include_large_core(self):
        # nc = (n - rl)/r + 1; with rl = n the reduction is single-core.
        p = params_for(0.99, 0.60, 0.80)
        sp_full = float(merging.speedup_asymmetric(p, 256, 256.0, 1.0))
        # manual: serial = (fcon + fcred + fored*1)/16, parallel = f/16
        expected = 1.0 / ((p.fcon + p.fcred + p.fored) / 16.0 + p.f / 16.0)
        assert sp_full == pytest.approx(expected)

    def test_low_overhead_prefers_many_small_cores(self):
        # Fig 5(a)/(e): with low reduction overhead, r = 1 wins.
        for con in (0.90, 0.60):
            p = params_for(0.999, con, 0.10)
            best = merging.best_asymmetric(p, 256)
            assert best.r == 1.0, f"fcon={con}"

    def test_rejects_large_core_smaller_than_small_cores(self):
        p = params_for(0.99, 0.6, 0.8)
        with pytest.raises(ValueError):
            merging.speedup_asymmetric(p, 256, rl=2.0, r=4.0)

    def test_sweep_respects_r_floor(self):
        p = params_for(0.99, 0.6, 0.8)
        sizes, _ = merging.sweep_asymmetric(p, 256, r=16.0)
        assert sizes.min() >= 16.0


class TestDesignRecords:
    def test_symmetric_core_count(self):
        d = merging.SymmetricDesign(r=4.0, speedup=10.0, n=256)
        assert d.cores == 64.0

    def test_asymmetric_core_counts(self):
        d = merging.AsymmetricDesign(rl=64.0, r=4.0, speedup=10.0, n=256)
        assert d.small_cores == 48.0
        assert d.cores == 49.0

    def test_power_of_two_grid(self):
        grid = merging.power_of_two_sizes(256)
        assert grid[0] == 1.0 and grid[-1] == 256.0
        assert len(grid) == 9
        assert np.all(np.diff(np.log2(grid)) == 1.0)

    def test_power_of_two_grid_with_cap(self):
        grid = merging.power_of_two_sizes(256, maximum=16)
        assert grid[-1] == 16.0
