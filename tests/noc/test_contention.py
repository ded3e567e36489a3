"""Unit tests for the link-contention analysis."""

import numpy as np
import pytest

from repro.noc.contention import (
    all_to_all_pattern,
    analyse_pattern,
    contended_growcomm,
    gather_pattern,
)
from repro.noc.topology import Mesh2D


class TestPatterns:
    def test_gather_pair_count(self):
        mesh = Mesh2D(16)
        assert len(gather_pattern(mesh, 0, x=1)) == 15
        assert len(gather_pattern(mesh, 0, x=3)) == 45

    def test_all_to_all_pair_count(self):
        mesh = Mesh2D(9)
        assert len(all_to_all_pattern(mesh)) == 72  # 9·8

    def test_gather_validates_master(self):
        with pytest.raises(ValueError):
            gather_pattern(Mesh2D(4), master=4)

    def test_patterns_are_int64_pair_arrays(self):
        mesh = Mesh2D(9)
        for pairs in (gather_pattern(mesh, 4, x=2), all_to_all_pattern(mesh, x=2)):
            assert pairs.dtype == np.int64
            assert pairs.ndim == 2 and pairs.shape[1] == 2

    def test_pattern_rows_in_source_major_order(self):
        mesh = Mesh2D(4)
        assert [tuple(p) for p in gather_pattern(mesh, 2, x=2)] == [
            (0, 2), (0, 2), (1, 2), (1, 2), (3, 2), (3, 2),
        ]
        assert [tuple(p) for p in all_to_all_pattern(mesh)] == [
            (s, d) for s in range(4) for d in range(4) if s != d
        ]

    def test_single_node_patterns_are_empty(self):
        assert gather_pattern(Mesh2D(1)).shape == (0, 2)
        assert all_to_all_pattern(Mesh2D(1)).shape == (0, 2)


class TestTrafficMultiplier:
    """``x < 1`` used to surface late (ZeroDivisionError inside a sweep)
    or not at all (empty patterns, a silent -0.0 growth)."""

    @pytest.mark.parametrize("x", [0, -1])
    def test_patterns_reject_x_below_one(self, x):
        with pytest.raises(ValueError, match="x must be >= 1"):
            gather_pattern(Mesh2D(4), 0, x=x)
        with pytest.raises(ValueError, match="x must be >= 1"):
            all_to_all_pattern(Mesh2D(4), x=x)

    @pytest.mark.parametrize("pattern", ["gather", "all_to_all"])
    @pytest.mark.parametrize("x", [0, -1])
    def test_growcomm_rejects_x_below_one_eagerly(self, pattern, x):
        with pytest.raises(ValueError, match="x must be >= 1"):
            contended_growcomm(pattern, x=x)


class TestAnalysis:
    def test_gather_is_heavily_imbalanced(self):
        mesh = Mesh2D(64)
        analysis = analyse_pattern(mesh, gather_pattern(mesh, 0))
        # the funnel into the master makes the hot link far above average
        assert analysis.imbalance > 3.0
        assert analysis.bottleneck_time > analysis.uniform_time

    def test_all_to_all_far_better_balanced_than_gather(self):
        mesh = Mesh2D(64)
        gather = analyse_pattern(mesh, gather_pattern(mesh, 0))
        a2a = analyse_pattern(mesh, all_to_all_pattern(mesh))
        assert a2a.imbalance < gather.imbalance

    def test_total_transfers_is_sum_of_hops(self):
        mesh = Mesh2D(16)
        pairs = gather_pattern(mesh, 0)
        analysis = analyse_pattern(mesh, pairs)
        assert analysis.total_transfers == sum(
            mesh.hop_distance(s, d) for s, d in pairs
        )

    def test_empty_pattern(self):
        mesh = Mesh2D(4)
        analysis = analyse_pattern(mesh, [])
        assert analysis.max_link_load == 0
        assert analysis.imbalance == 1.0

    def test_central_master_relieves_the_hotspot(self):
        # gathering into a corner is worse than into the mesh's centre
        mesh = Mesh2D(64)  # 8x8
        corner = analyse_pattern(mesh, gather_pattern(mesh, 0))
        center = analyse_pattern(mesh, gather_pattern(mesh, mesh.node_at(3, 3)))
        assert center.max_link_load < corner.max_link_load

    def test_4x4_gather_pins_the_corrected_imbalance(self):
        """Regression for the factor-of-2 convention mismatch: all mean
        statistics use bidirectional capacity (2 slots per undirected
        link), so for the 4x4 corner gather — 48 total hop-transfers,
        hottest link 12, 24 links — the mean is exactly 1.0 and the
        imbalance exactly 12.0 (it used to read 6.0 against a
        half-capacity mean while uniform_time used full capacity)."""
        mesh = Mesh2D(16)
        analysis = analyse_pattern(mesh, gather_pattern(mesh, 0))
        assert analysis.total_transfers == 48
        assert analysis.max_link_load == 12
        assert analysis.total_links == 24
        assert analysis.mean_link_load == pytest.approx(1.0)
        assert analysis.imbalance == pytest.approx(12.0)
        assert analysis.uniform_time == pytest.approx(1.0)
        assert analysis.bottleneck_time == pytest.approx(12.0)

    def test_imbalance_equals_bottleneck_over_uniform(self):
        """The one-convention invariant the fix establishes, across
        patterns and mesh sizes."""
        for n in (4, 16, 64):
            mesh = Mesh2D(n)
            for pairs in (gather_pattern(mesh, 0), all_to_all_pattern(mesh)):
                a = analyse_pattern(mesh, pairs)
                assert a.imbalance == pytest.approx(
                    a.bottleneck_time / a.uniform_time)


class TestContendedGrowcomm:
    def test_zero_at_single_core(self):
        g = contended_growcomm("all_to_all")
        assert float(g(1.0)) == 0.0

    def test_monotone_in_cores(self):
        g = contended_growcomm("all_to_all")
        vals = g(np.array([4.0, 16.0, 64.0]))
        assert np.all(np.diff(vals) > 0)

    def test_contended_above_eq8(self):
        # the bottleneck link is always at least as loaded as the average,
        # so the contended model charges at least Eq 8's sqrt(nc)/2
        from repro.core.communication import MESH_COMM

        g = contended_growcomm("all_to_all")
        for nc in (16.0, 64.0, 256.0):
            assert float(g(nc)) >= float(MESH_COMM(nc)) * 0.9

    def test_usable_in_speedup_model(self):
        from repro.core import communication as comm
        from repro.core.params import AppParams

        p = AppParams(f=0.99, fcon_share=0.6, fored_share=0.8)
        g = contended_growcomm("all_to_all")
        sizes, sp = comm.sweep_symmetric_comm(p, 256, comm=g)
        assert np.all(sp > 0)
        # contention only lowers the peak vs the paper's Eq 8
        _, sp_eq8 = comm.sweep_symmetric_comm(p, 256)
        assert sp.max() <= sp_eq8.max() + 1e-9

    def test_unknown_pattern(self):
        with pytest.raises(ValueError):
            contended_growcomm("ring-around-the-rosie")
