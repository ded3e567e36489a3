"""Tests for the MSI protocol option (no Exclusive state)."""

import pytest

from repro.simx.cache import MesiState
from repro.simx.coherence import CoherenceController
from repro.simx.config import CacheConfig, MachineConfig
from tests.simx.conftest import check_invariants


def controller(protocol: str) -> CoherenceController:
    return CoherenceController(MachineConfig(
        n_cores=4,
        coherence_protocol=protocol,
        l1d=CacheConfig(size=16 * 64, ways=4),
        l1i=CacheConfig(size=16 * 64, ways=4),
        l2=CacheConfig(size=256 * 64, ways=8, hit_latency=12),
    ))


class TestMsi:
    def test_read_installs_shared(self):
        c = controller("msi")
        c.read(0, 0)
        assert c.l1s[0].lookup(0).state is MesiState.SHARED

    def test_read_then_write_pays_upgrade(self):
        mesi, msi = controller("mesi"), controller("msi")
        mesi.read(0, 0)
        msi.read(0, 0)
        cost_mesi = mesi.write(0, 0)   # silent E -> M
        cost_msi = msi.write(0, 0)     # S -> M upgrade transaction
        assert cost_msi > cost_mesi
        assert msi.stats.upgrades == 1
        assert mesi.stats.upgrades == 0

    def test_safety_invariants_hold(self):
        c = controller("msi")
        for i in range(20):
            c.read(i % 4, (i % 8) * 64)
            c.write((i + 1) % 4, (i % 8) * 64)
        check_invariants(c)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            MachineConfig(coherence_protocol="moesi")

    def test_private_read_write_workload_slower_under_msi(self):
        # the E state exists exactly for read-then-modify private data
        def total(protocol):
            c = controller(protocol)
            cycles = 0
            for i in range(16):
                cycles += c.read(0, i * 64)
                cycles += c.write(0, i * 64)
            return cycles

        assert total("msi") > total("mesi")
