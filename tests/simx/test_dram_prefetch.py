"""Tests for the banked-DRAM model."""

import pytest

from repro.simx import Load, Machine, MachineConfig, ThreadTrace, TraceProgram
from repro.simx.config import CacheConfig
from repro.simx.dram import DramModel


class TestDramModel:
    def test_streaming_hits_open_rows(self):
        d = DramModel(n_banks=4, row_bytes=2048, line_size=64)
        # walk 64 consecutive lines: after each bank's first activation,
        # accesses stay in the open row
        latencies = [d.access(line) for line in range(64)]
        assert latencies.count(d.row_miss_latency) == 4  # one per bank
        assert d.row_hits / (d.row_hits + d.row_misses) > 0.9

    def test_scattered_accesses_miss_rows(self):
        d = DramModel(n_banks=4, row_bytes=2048, line_size=64)
        stride = d.lines_per_row * d.n_banks  # new row every access
        for i in range(16):
            assert d.access(i * stride) == d.row_miss_latency
        assert d.row_hits / (d.row_hits + d.row_misses) == 0.0

    def test_bank_interleaving(self):
        d = DramModel(n_banks=8)
        assert {d.bank_of(line) for line in range(16)} == set(range(8))

    def test_validation(self):
        with pytest.raises(ValueError):
            DramModel(row_bytes=100, line_size=64)
        with pytest.raises(ValueError):
            DramModel(n_banks=0)
        with pytest.raises(ValueError):
            DramModel().access(-1)


def tiny_config(**kw) -> MachineConfig:
    return MachineConfig(
        n_cores=2,
        l1d=CacheConfig(size=16 * 64, ways=4),
        l1i=CacheConfig(size=16 * 64, ways=4),
        l2=CacheConfig(size=256 * 64, ways=8, hit_latency=12),
        **kw,
    )


class TestBankedDramInMachine:
    def test_streaming_faster_than_scattered(self):
        cfg = tiny_config(dram="banked")
        stream = [Load(i * 64) for i in range(64)]
        scattered = [Load(i * 64 * 256) for i in range(64)]
        t_stream = Machine(cfg).run(
            TraceProgram("s", [ThreadTrace(0, stream)])
        ).total_cycles
        t_scatter = Machine(cfg).run(
            TraceProgram("r", [ThreadTrace(0, scattered)])
        ).total_cycles
        assert t_stream < t_scatter

    def test_flat_dram_indifferent_to_pattern(self):
        cfg = tiny_config(dram="flat")
        stream = [Load(i * 64) for i in range(32)]
        scattered = [Load(i * 64 * 256) for i in range(32)]
        t1 = Machine(cfg).run(TraceProgram("s", [ThreadTrace(0, stream)])).total_cycles
        t2 = Machine(cfg).run(TraceProgram("r", [ThreadTrace(0, scattered)])).total_cycles
        assert t1 == t2

    def test_unknown_dram_mode_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(dram="quantum")

