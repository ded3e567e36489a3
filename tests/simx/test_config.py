"""Unit tests for machine configuration (Table I)."""

import pytest

from repro.simx.config import CacheConfig, CoreConfig, MachineConfig


class TestCacheConfig:
    def test_table1_l1d_geometry(self):
        c = CacheConfig(size=64 * 1024, ways=4)
        assert c.n_sets == 256
        assert c.size // c.line_size == 1024

    def test_table1_l2_geometry(self):
        c = CacheConfig(size=4 * 1024 * 1024, ways=16)
        assert c.size // c.line_size == 65536
        assert c.n_sets == 4096

    def test_rejects_nondivisible_geometry(self):
        with pytest.raises(ValueError):
            CacheConfig(size=1000, ways=3)

    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError):
            CacheConfig(size=0, ways=1)


class TestCoreConfig:
    def test_table1_defaults(self):
        c = CoreConfig()
        assert c.issue_width == 4
        assert c.instruction_window == 32
        assert c.lsq_entries == 16
        assert c.rob_entries == 64
        assert c.btb_entries == 512
        assert c.branch_history_entries == 2048

    def test_ipc_bounded_by_issue_width(self):
        with pytest.raises(ValueError):
            CoreConfig(issue_width=2, effective_ipc=3.0)


class TestMachineConfig:
    def test_baseline_matches_table1(self):
        m = MachineConfig.baseline()
        assert m.n_cores == 16
        assert m.l1i.size == 16 * 1024 and m.l1i.ways == 2
        assert m.l1d.size == 64 * 1024 and m.l1d.ways == 4
        assert m.l2.size == 4 * 1024 * 1024 and m.l2.ways == 16

    def test_rejects_unknown_interconnect(self):
        with pytest.raises(ValueError):
            MachineConfig(interconnect="hypercube")

    def test_rejects_mismatched_line_sizes(self):
        with pytest.raises(ValueError):
            MachineConfig(
                l1d=CacheConfig(size=64 * 1024, ways=4, line_size=32),
                l2=CacheConfig(size=4 * 1024 * 1024, ways=16, line_size=64),
            )

    def test_line_size_accessor(self):
        assert MachineConfig.baseline().line_size == 64
