"""Unit tests for the simulator sweep: the paper workloads and sweep-point
resolution through the pipeline's disk tier."""

from dataclasses import asdict

import pytest

from repro import engine, pipeline
from repro.pipeline import simulate_breakdowns
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
    def private_store(self, tmp_path):
        """A private disk tier, the one cache below the engine session."""
        restore = pipeline.get_disk_store()
        pipeline.set_disk_store(tmp_path / "sweeps")
        yield
        pipeline.set_disk_store(restore)

    @staticmethod
    def _resolve(wl, thread_counts, mem_scale):
        """Breakdowns plus the stats of the session that settled them."""
        with engine.session(1) as sess:
            out = simulate_breakdowns(wl, thread_counts, n_cores=2,
                                      mem_scale=mem_scale)
        return out, sess.stats

    def test_cache_hit_executes_nothing(self):
        wl = default_workloads(0.03)["kmeans"]
        a, _ = self._resolve(wl, (1, 2), 8)
        b, stats = self._resolve(wl, (1, 2), 8)
        # served from disk, not recomputed
        assert (stats["cache_hits"], stats["executed"]) == (2, 0)
        assert {p: asdict(v) for p, v in a.items()} == {p: asdict(v) for p, v in b.items()}

    def test_different_mem_scale_different_entry(self):
        wl = default_workloads(0.03)["kmeans"]
        self._resolve(wl, (1,), 8)
        _, stats = self._resolve(wl, (1,), 4)
        assert (stats["cache_hits"], stats["executed"]) == (0, 1)

    def test_clear_cache(self):
        wl = default_workloads(0.03)["kmeans"]
        a, _ = self._resolve(wl, (1,), 8)
        pipeline.get_disk_store().clear()
        b, stats = self._resolve(wl, (1,), 8)
        # nothing kept: a fresh miss, executed again
        assert (stats["cache_hits"], stats["executed"]) == (0, 1)
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
