"""Unit tests for the inverse-problem (requirements) module."""

import pytest

from repro.core import measured as mm
from repro.core.params import MeasuredParams
from repro.core.requirements import max_affordable_overhead


class TestAffordableOverhead:
    def test_inversion_is_exact(self):
        # plug the bound back into the forward model: it hits the target
        f, con, p, target = 0.999, 0.6, 64, 40.0
        o = max_affordable_overhead(f, con, p, target)
        assert o > 0
        params = MeasuredParams(
            name="x", serial_pct=100 * (1 - f), critical_pct=0.0,
            fored_rel=o, fred_share=1 - con, fcon_share=con,
        )
        assert float(mm.speedup_extended(params, p)) == pytest.approx(target, rel=1e-9)

    def test_unreachable_target_returns_zero(self):
        # target above Amdahl's own ceiling: no overhead budget at all
        assert max_affordable_overhead(0.99, 0.6, 64, 70.0) == 0.0

    def test_budget_shrinks_with_core_count(self):
        # the same target on more cores leaves room; but a *scaled* target
        # (fixed efficiency) tightens the budget as p grows
        o_small = max_affordable_overhead(0.999, 0.6, 32, 0.5 * 32)
        o_large = max_affordable_overhead(0.999, 0.6, 256, 0.5 * 256)
        assert o_large < o_small

    def test_no_reduction_rejected(self):
        with pytest.raises(ValueError):
            max_affordable_overhead(0.99, 0.6, 16, 10.0, fred_share=0.0)

