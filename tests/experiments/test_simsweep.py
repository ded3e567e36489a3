"""Unit tests for the simulator sweep: the paper workloads and sweep-point
resolution through the one pipeline memo."""

from dataclasses import asdict

import pytest

from repro import pipeline
from repro.pipeline import clear_memo, memo_info, simulate_breakdowns
from repro.workloads import default_workloads


class TestDefaultWorkloads:
    def test_contains_the_three_paper_workloads(self):
        wls = default_workloads(0.05)
        assert set(wls) == {"kmeans", "fuzzy", "hop"}

    def test_scale_controls_dataset_size(self):
        small = default_workloads(0.05)["kmeans"].dataset.n_points
        big = default_workloads(0.5)["kmeans"].dataset.n_points
        assert big > small

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            default_workloads(0.0)
        with pytest.raises(ValueError):
            default_workloads(1.5)


class TestMemoisation:
    @pytest.fixture(autouse=True)
    def memo_only(self):
        """No disk tier: every memo miss is a full miss."""
        restore = pipeline.get_disk_store()
        pipeline.set_disk_store(None)
        clear_memo()
        yield
        pipeline.set_disk_store(restore)
        clear_memo()

    def test_cache_hit_executes_nothing(self):
        wl = default_workloads(0.03)["kmeans"]
        a = simulate_breakdowns(wl, (1, 2), n_cores=2, mem_scale=8)
        before = memo_info()
        b = simulate_breakdowns(wl, (1, 2), n_cores=2, mem_scale=8)
        after = memo_info()
        # memoised, not recomputed
        assert after["executed"] == before["executed"]
        assert after["misses"] == before["misses"]
        assert after["memory_hits"] == before["memory_hits"] + 2
        assert {p: asdict(v) for p, v in a.items()} == {p: asdict(v) for p, v in b.items()}

    def test_different_mem_scale_different_entry(self):
        wl = default_workloads(0.03)["kmeans"]
        simulate_breakdowns(wl, (1,), n_cores=2, mem_scale=8)
        misses = memo_info()["misses"]
        simulate_breakdowns(wl, (1,), n_cores=2, mem_scale=4)
        assert memo_info()["misses"] == misses + 1

    def test_clear_cache(self):
        wl = default_workloads(0.03)["kmeans"]
        a = simulate_breakdowns(wl, (1,), n_cores=2, mem_scale=8)
        clear_memo()
        b = simulate_breakdowns(wl, (1,), n_cores=2, mem_scale=8)
        # the memo kept nothing: a fresh miss, executed again
        assert memo_info()["misses"] == 1
        assert memo_info()["executed"] == 1
        # but deterministic: equal values
        assert a[1].total == b[1].total


class TestSummaryRenderer:
    def test_simulation_summary_text(self):
        from repro.simx import Compute, Machine, MachineConfig, ThreadTrace, TraceProgram
        from repro.simx.trace import PhaseBegin, PhaseEnd

        prog = TraceProgram("demo", [ThreadTrace(0, [
            PhaseBegin("work"), Compute(100), PhaseEnd("work"),
        ])])
        res = Machine(MachineConfig.baseline(n_cores=1)).run(prog)
        text = res.summary()
        assert "demo" in text
        assert "work" in text
        assert "coherence" in text
