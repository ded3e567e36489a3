"""Unit tests for the interconnect timing models."""

import pytest

from repro.simx.config import MachineConfig
from repro.simx.interconnect import (
    BusInterconnect,
    MeshInterconnect,
    build_interconnect,
)


class TestBus:
    def test_fixed_latency(self):
        bus = BusInterconnect(4)
        assert bus.request_latency(0, 12345) == 4
        assert bus.request_latency(7, 0) == 4

    def test_core_to_core(self):
        bus = BusInterconnect(4)
        assert bus.core_to_core_latency(0, 1) == 4
        assert bus.core_to_core_latency(3, 3) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            BusInterconnect(-1)


class TestMesh:
    def test_local_bank_is_free(self):
        mesh = MeshInterconnect(16, hop_latency=2)
        # line 0 homes at tile 0; requests from tile 0 take zero hops
        assert mesh.request_latency(0, 0) == 0

    def test_distance_scales_latency(self):
        mesh = MeshInterconnect(16, hop_latency=2)  # 4x4
        # tile 15 is 6 hops from tile 0 → 2 * 6 * 2 = 24
        assert mesh.request_latency(15, 0) == 24

    def test_core_to_core_uses_hops(self):
        mesh = MeshInterconnect(16, hop_latency=3)
        assert mesh.core_to_core_latency(0, 15) == 6 * 3
        assert mesh.core_to_core_latency(5, 5) == 0

    @pytest.mark.parametrize("n", [4, 8, 16, 64])
    def test_request_table_matches_hop_distance(self, n):
        mesh = MeshInterconnect(n, hop_latency=3)
        for core in range(n):
            for line in range(2 * n + 1):
                want = 2 * mesh.mesh.hop_distance(core, line % n) * 3
                assert mesh.request_table[core][line % n] == want
                assert mesh.request_latency(core, line) == want

    @pytest.mark.parametrize("n", [4, 8, 12, 16, 64])
    def test_transfer_table_matches_hop_distance(self, n):
        # 8 and 12 lay out as non-square grids (2x4, 3x4)
        mesh = MeshInterconnect(n, hop_latency=3)
        for src in range(n):
            for dst in range(n):
                want = mesh.mesh.hop_distance(src, dst) * 3
                assert mesh.core_to_core_latency(src, dst) == want

    @pytest.mark.parametrize("core", [-1, 16, 100])
    def test_invalid_core_raises(self, core):
        with pytest.raises(ValueError):
            MeshInterconnect(16, hop_latency=2).request_latency(core, 0)

    @pytest.mark.parametrize("pair", [(-1, 0), (0, -1), (16, 0), (0, 16)])
    def test_invalid_transfer_core_raises(self, pair):
        with pytest.raises(ValueError):
            MeshInterconnect(16, hop_latency=2).core_to_core_latency(*pair)


class TestBuild:
    def test_builds_from_config(self):
        assert isinstance(
            build_interconnect(MachineConfig.baseline(interconnect="bus")),
            BusInterconnect,
        )
        assert isinstance(
            build_interconnect(MachineConfig.baseline(interconnect="mesh")),
            MeshInterconnect,
        )
