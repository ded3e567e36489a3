"""Unit tests for the communication-aware model (Eqs 6–8, Fig 7)."""

import numpy as np
import pytest

from repro.core import communication as comm
from repro.core import merging
from repro.core.params import AppParams
from repro.core.perf import PerfLaw


def moderate_nonemb() -> AppParams:
    """The Table III class Fig 7 is plotted for."""
    return AppParams(f=0.99, fcon_share=0.60, fored_share=0.80)


class TestMeshGrowcomm:
    def test_asymptotic_form(self):
        # Eq 8: growcomm ≈ sqrt(nc)/2
        assert comm.MESH_COMM(64.0) == pytest.approx(4.0)
        assert comm.MESH_COMM(256.0) == pytest.approx(8.0)

    def test_exact_expression_matches_simplification(self):
        # 2(nc-1)·x·(sqrt(nc)-1) / (4·sqrt(nc)·(sqrt(nc)-1)) == x(nc-1)/(2·sqrt(nc))
        # and for nc = m², (m²-1)/(2m) → m/2 only asymptotically; the paper
        # keeps the ≈ sqrt(nc)/2 form, which we adopt. Check they agree to
        # within 1/sqrt(nc) relative error at scale.
        for nc in (64.0, 256.0, 1024.0):
            exact = (nc - 1.0) / (2.0 * np.sqrt(nc))
            assert comm.MESH_COMM(nc) == pytest.approx(exact, rel=2.0 / np.sqrt(nc))

    def test_no_communication_on_single_core(self):
        assert comm.MESH_COMM(1.0) == pytest.approx(0.0)

    def test_rejects_core_count_below_one(self):
        with pytest.raises(ValueError):
            comm.MESH_COMM(0.5)


class TestCompGrowth:
    def test_parallel_has_no_extra_work(self):
        nc = np.array([1.0, 16.0, 256.0])
        assert np.allclose(comm.PARALLEL_COMP(nc), 0.0)

    def test_linear_extra_work(self):
        assert comm.LINEAR_COMP(1.0) == pytest.approx(0.0)
        assert comm.LINEAR_COMP(64.0) == pytest.approx(63.0)

    def test_log_extra_work(self):
        assert comm.LOG_COMP(1.0) == pytest.approx(0.0)
        assert comm.LOG_COMP(64.0) == pytest.approx(6.0)


class TestPaperAnchorsFig7:
    def test_fig7a_symmetric_peak_46_6_at_r8(self):
        # "r = 8 ... yields the highest speedup ... 79.7 against 46.6"
        sizes, sp = comm.sweep_symmetric_comm(moderate_nonemb(), 256)
        i = int(np.argmax(sp))
        assert sizes[i] == 8.0
        assert sp[i] == pytest.approx(46.6, abs=0.15)

    def test_fig7b_asymmetric_peak_51_6(self):
        # "the maximum speedup estimate is 51.6"
        best = -np.inf
        for r in (1.0, 4.0, 16.0):
            _, sp = comm.sweep_asymmetric_comm(moderate_nonemb(), 256, r=r)
            best = max(best, float(sp.max()))
        assert best == pytest.approx(51.6, abs=0.15)

    def test_fig7b_r4_slightly_beats_r1(self):
        # "a design with fewer larger cores provides a slightly better
        # estimate ... although the margin is not significant"
        _, sp1 = comm.sweep_asymmetric_comm(moderate_nonemb(), 256, r=1.0)
        _, sp4 = comm.sweep_asymmetric_comm(moderate_nonemb(), 256, r=4.0)
        assert sp4.max() > sp1.max()
        assert sp4.max() / sp1.max() < 1.15  # margin under 15%

    def test_fig7_acmp_advantage_diminished(self):
        # "the speedup improvement of ACMP over CMP is diminished"
        _, sym = comm.sweep_symmetric_comm(moderate_nonemb(), 256)
        best_asym = max(
            float(comm.sweep_asymmetric_comm(moderate_nonemb(), 256, r=r)[1].max())
            for r in (1.0, 4.0, 16.0)
        )
        ratio = best_asym / float(sym.max())
        # Amdahl predicts > 2x advantage for this class; comm model ~1.1x
        assert ratio < 1.2


class TestModelStructure:
    def test_communication_term_not_scaled_by_perf(self):
        # a faster core must not shrink the comm share: compare serial
        # terms at the same nc = 64 (r = 4 on 256 BCEs) under perf laws
        # with perf(4) = 1 and perf(4) = 4.
        p = moderate_nonemb()

        def serial_term(perf, perf4):
            sp = float(comm.speedup_symmetric_comm(p, 256, 4.0, perf=perf))
            return 1.0 / sp - p.f * 4.0 / (perf4 * 256)

        t_slow = serial_term(PerfLaw("flat", lambda r: np.ones_like(r)), 1.0)
        t_fast = serial_term(PerfLaw("linear", lambda r: r), 4.0)
        comm_part = p.fcomm * (1.0 + float(comm.MESH_COMM(64.0)))
        # the fast core reduces only the compute part:
        assert t_fast > comm_part
        assert t_slow - t_fast == pytest.approx(
            (p.fcon + p.fcomp) * (1.0 - 1.0 / 4.0)
        )

    def test_single_core_serial_term_recovers_full_serial_fraction(self):
        # r = n → nc = 1: no extra computation, no communication growth,
        # so Eq 6 charges exactly Eq 2's serial section at perf(n) for
        # the compute half and at wire speed for the comm half
        p = moderate_nonemb()
        sp = float(comm.speedup_symmetric_comm(p, 256, 256.0))
        expected = 1.0 / ((p.fcon + p.fcomp) / 16.0 + p.fcomm + p.f / 16.0)
        assert sp == pytest.approx(expected)

    def test_linear_comp_growth_costs_more_than_parallel(self):
        p = moderate_nonemb()
        sizes = merging.power_of_two_sizes(256)
        sp_par = np.asarray(
            comm.speedup_symmetric_comm(p, 256, sizes, comp=comm.PARALLEL_COMP)
        )
        sp_lin = np.asarray(
            comm.speedup_symmetric_comm(p, 256, sizes, comp=comm.LINEAR_COMP)
        )
        assert np.all(sp_par >= sp_lin - 1e-12)

    def test_rejects_invalid_geometry(self):
        p = moderate_nonemb()
        with pytest.raises(ValueError):
            comm.speedup_symmetric_comm(p, 256, 0.0)
        with pytest.raises(ValueError):
            comm.speedup_asymmetric_comm(p, 256, rl=2.0, r=8.0)
