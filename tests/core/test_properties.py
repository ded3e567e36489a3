"""Hypothesis property tests for the model layer's invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import amdahl, communication as comm, hill_marty, merging
from repro.core.growth import LINEAR, LOG, PARALLEL, GrowthFunction
from repro.core.params import AppParams

fractions = st.floats(min_value=0.5, max_value=0.99999, allow_nan=False)
shares = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
core_sizes = st.sampled_from([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0])
processor_counts = st.integers(min_value=1, max_value=4096)


@st.composite
def app_params(draw):
    return AppParams(
        f=draw(fractions),
        fcon_share=draw(shares),
        fored_share=draw(shares),
    )


class TestAmdahlInvariants:
    @given(f=fractions, p=processor_counts)
    def test_speedup_bounded_by_p_and_limit(self, f, p):
        sp = amdahl.speedup(f, p)
        assert 1.0 <= sp <= p + 1e-9
        assert sp <= amdahl.speedup_limit(f) + 1e-9

    @given(f=fractions, p=st.integers(min_value=2, max_value=2048))
    def test_monotone_in_processors(self, f, p):
        assert amdahl.speedup(f, p) >= amdahl.speedup(f, p - 1) - 1e-12

    @given(f1=fractions, f2=fractions, p=processor_counts)
    def test_monotone_in_parallel_fraction(self, f1, f2, p):
        lo, hi = sorted([f1, f2])
        assert amdahl.speedup(hi, p) >= amdahl.speedup(lo, p) - 1e-12


class TestHillMartyInvariants:
    @given(f=fractions, r=core_sizes)
    def test_symmetric_bounded_by_amdahl_with_unit_cores(self, f, r):
        # building bigger cores can never beat ideal linear scaling of n
        # unit cores for the parallel part plus a perfect serial engine
        n = 256
        sp = hill_marty.speedup_symmetric(f, n, r)
        assert 0 < sp <= n

    @given(f=fractions, rl=core_sizes)
    def test_asymmetric_at_least_large_core_alone(self, f, rl):
        n = 256
        sp = hill_marty.speedup_asymmetric(f, n, rl)
        assert sp > 0
        # adding small cores never hurts relative to serialising everything
        # on the large core:
        serial_only = 1.0 / ((1 - f) / np.sqrt(rl) + f / np.sqrt(rl))
        assert sp >= serial_only - 1e-9


class TestMergingInvariants:
    @given(p=app_params(), r=core_sizes)
    def test_extended_at_most_hill_marty(self, p, r):
        # grow(nc) >= 1 for all our growth laws, so the extended serial cost
        # is >= the constant one → speedup can only be lower.
        n = 256
        ours = float(merging.speedup_symmetric(p, n, r))
        hm = float(hill_marty.speedup_symmetric(p.f, n, r))
        assert ours <= hm + 1e-9

    @given(p=app_params(), r=core_sizes)
    def test_growth_ordering_parallel_log_linear(self, p, r):
        n = 256
        sp_par = float(merging.speedup_symmetric(p, n, r, PARALLEL))
        sp_log = float(merging.speedup_symmetric(p, n, r, LOG))
        sp_lin = float(merging.speedup_symmetric(p, n, r, LINEAR))
        assert sp_par >= sp_log - 1e-9 >= sp_lin - 2e-9

    @given(p=app_params(), rl=core_sizes, r=st.sampled_from([1.0, 4.0, 16.0]))
    def test_asymmetric_positive_and_finite(self, p, rl, r):
        if rl < r:
            return
        sp = float(merging.speedup_asymmetric(p, 256, rl, r))
        assert np.isfinite(sp) and sp > 0

    @given(p=app_params())
    def test_zero_overhead_share_equals_hill_marty_everywhere(self, p):
        q = p.with_(fored_share=0.0)
        sizes = merging.power_of_two_sizes(256)
        ours = np.asarray(merging.speedup_symmetric(q, 256, sizes))
        hm = np.asarray(hill_marty.speedup_symmetric(q.f, 256, sizes))
        assert np.allclose(ours, hm)

    @given(p=app_params(), o1=shares, o2=shares, r=core_sizes)
    def test_monotone_decreasing_in_overhead_share(self, p, o1, o2, r):
        lo, hi = sorted([o1, o2])
        sp_lo = float(merging.speedup_symmetric(p.with_(fored_share=lo), 256, r))
        sp_hi = float(merging.speedup_symmetric(p.with_(fored_share=hi), 256, r))
        assert sp_hi <= sp_lo + 1e-9


class TestCommunicationInvariants:
    @given(p=app_params(), r=core_sizes)
    def test_comm_model_positive(self, p, r):
        sp = float(comm.speedup_symmetric_comm(p, 256, r))
        assert np.isfinite(sp) and sp > 0

    @given(p=app_params(), r=core_sizes)
    def test_comm_model_at_most_parallel_growth_model(self, p, r):
        # the comm model charges the parallel-reduction computation plus a
        # communication term; dropping the comm term recovers something at
        # least as fast as keeping it.
        n = 256
        no_comm = GrowthFunction("none", lambda nc: np.zeros_like(np.asarray(nc, float)))
        with_mesh = float(comm.speedup_symmetric_comm(p, n, r, comm=comm.MESH_COMM))
        without = float(comm.speedup_symmetric_comm(p, n, r, comm=no_comm))
        assert with_mesh <= without + 1e-9

    @settings(max_examples=50)
    @given(nc=st.floats(min_value=1.0, max_value=65536.0, allow_nan=False))
    def test_mesh_growcomm_monotone(self, nc):
        assert comm.MESH_COMM(nc + 1.0) >= comm.MESH_COMM(nc)
