"""Hypothesis property tests for the extension models.

Common contract: every extension must (a) reduce exactly to the base
merging model when its knob is neutral, and (b) only ever *lower* speedup
as its cost knob grows.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import merging
from repro.core.critical import CriticalParams, speedup_symmetric_cs
from repro.core.mix import WorkloadMix, mix_speedup
from repro.core.params import AppParams

fractions = st.floats(min_value=0.5, max_value=0.9999, allow_nan=False)
shares = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
core_sizes = st.sampled_from([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0])


@st.composite
def app_params(draw):
    return AppParams(
        f=draw(fractions), fcon_share=draw(shares), fored_share=draw(shares)
    )


class TestNeutralKnobsRecoverEq4:
    @settings(max_examples=40)
    @given(p=app_params(), r=core_sizes)
    def test_critical_zero_share(self, p, r):
        cs = CriticalParams(base=p, fcs_share=0.0)
        assert float(speedup_symmetric_cs(cs, 256, r)) == float(
            merging.speedup_symmetric(p, 256, r)
        )

    @settings(max_examples=40)
    @given(p=app_params(), r=core_sizes)
    def test_singleton_mix(self, p, r):
        m = WorkloadMix.uniform([p])
        assert float(mix_speedup(m, 256, r)) == float(
            merging.speedup_symmetric(p, 256, r)
        )


class TestKnobsOnlyHurt:
    @settings(max_examples=40)
    @given(
        p=app_params(), r=core_sizes,
        c1=st.floats(min_value=0.0, max_value=0.5),
        c2=st.floats(min_value=0.0, max_value=0.5),
    )
    def test_critical_monotone(self, p, r, c1, c2):
        lo, hi = sorted([c1, c2])
        sp_lo = float(speedup_symmetric_cs(CriticalParams(p, lo), 256, r))
        sp_hi = float(speedup_symmetric_cs(CriticalParams(p, hi), 256, r))
        assert sp_hi <= sp_lo + 1e-9


class TestMixBounds:
    @settings(max_examples=40)
    @given(a=app_params(), b=app_params(), r=core_sizes)
    def test_mix_between_component_speedups(self, a, b, r):
        m = WorkloadMix.uniform([a, b])
        sp = float(mix_speedup(m, 256, r))
        sa = float(merging.speedup_symmetric(a, 256, r))
        sb = float(merging.speedup_symmetric(b, 256, r))
        assert min(sa, sb) - 1e-9 <= sp <= max(sa, sb) + 1e-9
