"""Unit tests for the combined critical-section + merging model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import merging
from repro.core.critical import (
    CriticalParams,
    best_symmetric_cs,
    speedup_asymmetric_cs,
    speedup_symmetric_cs,
)
from repro.core.params import AppParams


def base() -> AppParams:
    return AppParams(f=0.99, fcon_share=0.60, fored_share=0.80)


class TestReduction:
    def test_zero_cs_recovers_merging_model(self):
        p = CriticalParams(base=base(), fcs_share=0.0)
        sizes = merging.power_of_two_sizes(256)
        ours = np.asarray(speedup_symmetric_cs(p, 256, sizes))
        eq4 = np.asarray(merging.speedup_symmetric(base(), 256, sizes))
        assert np.allclose(ours, eq4)

    def test_zero_cs_asymmetric(self):
        p = CriticalParams(base=base(), fcs_share=0.0)
        rl = np.array([16.0, 64.0, 128.0])
        ours = np.asarray(speedup_asymmetric_cs(p, 256, rl, r=4.0))
        eq5 = np.asarray(merging.speedup_asymmetric(base(), 256, rl, r=4.0))
        assert np.allclose(ours, eq5)


class TestFractions:
    def test_fcs_is_fraction_of_parallel_work(self):
        p = CriticalParams(base=base(), fcs_share=0.05)
        assert p.fcs == pytest.approx(0.99 * 0.05)

    def test_rejects_bad_share(self):
        with pytest.raises(ValueError):
            CriticalParams(base=base(), fcs_share=1.5)


class TestSerializationEffects:
    def test_critical_sections_cap_speedup(self):
        # bottleneck mode: the parallel phase cannot beat the lock's
        # serial demand, served at perf(r): speedup <= perf(r) / fcs
        p = CriticalParams(base=base(), fcs_share=0.05)
        sizes = merging.power_of_two_sizes(256)
        sp = np.asarray(speedup_symmetric_cs(p, 256, sizes, mode="bottleneck"))
        caps = np.sqrt(sizes) / p.fcs
        assert np.all(sp <= caps + 1e-9)

    def test_more_cs_work_means_less_speedup(self):
        # shares big enough that the lock, not the merge, is binding
        lo = CriticalParams(base=base(), fcs_share=0.05)
        hi = CriticalParams(base=base(), fcs_share=0.40)
        _, sp_lo = best_symmetric_cs(lo, 256)
        _, sp_hi = best_symmetric_cs(hi, 256)
        assert sp_hi < sp_lo

    def test_small_cs_share_slack_when_merge_dominates(self):
        # with the paper's high-overhead class, a 1% critical section is
        # not the binding constraint — the merge is (orthogonality of the
        # two limiters, as Section VI argues)
        p = CriticalParams(base=base(), fcs_share=0.01)
        _, combined = best_symmetric_cs(p, 256)
        plain = merging.best_symmetric(base(), 256).speedup
        assert combined == pytest.approx(plain, rel=1e-6)

    def test_probabilistic_at_most_bottleneck_serialization(self):
        p = CriticalParams(base=base(), fcs_share=0.05)
        sizes = merging.power_of_two_sizes(256)
        prob = np.asarray(speedup_symmetric_cs(p, 256, sizes, mode="probabilistic"))
        btl = np.asarray(speedup_symmetric_cs(p, 256, sizes, mode="bottleneck"))
        assert np.all(prob >= btl - 1e-12)

    def test_negligible_cs_matches_paper_assumption(self):
        # Table II: clustering apps have <= 0.004% critical sections — the
        # paper excludes them; the combined model must agree to ~0.1%.
        p = CriticalParams(base=base(), fcs_share=0.00004)
        best_combined = best_symmetric_cs(p, 256)[1]
        best_plain = merging.best_symmetric(base(), 256).speedup
        assert best_combined == pytest.approx(best_plain, rel=1e-3)

    def test_large_cores_relieve_cs_bottleneck_on_symmetric(self):
        # critical sections run at perf(r): larger cores shorten them
        p = CriticalParams(base=base(), fcs_share=0.2)
        sp_small = float(speedup_symmetric_cs(p, 256, 1.0))
        sp_big = float(speedup_symmetric_cs(p, 256, 16.0))
        assert sp_big > sp_small


class TestACS:
    def test_accelerating_critical_sections_helps(self):
        # Suleman et al.'s ACS: contended CS on the big core beats CS on
        # the small cores
        p = CriticalParams(base=base(), fcs_share=0.10)
        rl = 64.0
        acs = float(speedup_asymmetric_cs(p, 256, rl, r=1.0, accelerate_critical=True))
        no_acs = float(speedup_asymmetric_cs(p, 256, rl, r=1.0, accelerate_critical=False))
        assert acs > no_acs

    def test_acmp_with_acs_beats_symmetric_for_cs_heavy_apps(self):
        # with heavy critical sections the large core pays off even at
        # high reduction overhead (it serves both bottlenecks)
        p = CriticalParams(base=base(), fcs_share=0.15)
        _, sym = best_symmetric_cs(p, 256)
        rl_grid = merging.power_of_two_sizes(256)
        asym = max(
            float(np.max(np.asarray(
                speedup_asymmetric_cs(p, 256, rl_grid[rl_grid >= r], r=r)
            )))
            for r in (1.0, 4.0, 16.0)
        )
        assert asym > sym


class TestValidation:
    def test_unknown_mode(self):
        p = CriticalParams(base=base(), fcs_share=0.05)
        with pytest.raises(ValueError):
            speedup_symmetric_cs(p, 256, 4.0, mode="magic")
        with pytest.raises(ValueError):
            speedup_asymmetric_cs(p, 256, 16.0, mode="magic")

    def test_geometry_validation(self):
        p = CriticalParams(base=base(), fcs_share=0.05)
        with pytest.raises(ValueError):
            speedup_symmetric_cs(p, 256, 512.0)
        with pytest.raises(ValueError):
            speedup_asymmetric_cs(p, 256, rl=2.0, r=4.0)


class TestProperties:
    @settings(max_examples=50)
    @given(
        fcs=st.floats(min_value=0.0, max_value=0.5),
        r=st.sampled_from([1.0, 4.0, 16.0, 64.0]),
        mode=st.sampled_from(["bottleneck", "probabilistic"]),
    )
    def test_combined_never_exceeds_merging_model(self, fcs, r, mode):
        p = CriticalParams(base=base(), fcs_share=fcs)
        combined = float(speedup_symmetric_cs(p, 256, r, mode=mode))
        plain = float(merging.speedup_symmetric(base(), 256, r))
        assert combined <= plain + 1e-9

    @settings(max_examples=50)
    @given(
        f1=st.floats(min_value=0.0, max_value=0.4),
        f2=st.floats(min_value=0.0, max_value=0.4),
        r=st.sampled_from([1.0, 8.0, 64.0]),
    )
    def test_monotone_in_cs_share(self, f1, f2, r):
        lo, hi = sorted([f1, f2])
        sp_lo = float(speedup_symmetric_cs(CriticalParams(base(), lo), 256, r))
        sp_hi = float(speedup_symmetric_cs(CriticalParams(base(), hi), 256, r))
        assert sp_hi <= sp_lo + 1e-9
