"""``scripts/run_bench.py``: report regeneration keeps unmeasured
sections, and the sweep-cache helpers run.

A run without ``--distributed``/``--sched``/``--serve``/``--fuzz-iters``
must not drop those sections from the report it overwrites.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_bench.py"


@pytest.fixture(scope="module")
def run_bench():
    spec = importlib.util.spec_from_file_location("run_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_unmeasured_sections_carry_forward(run_bench):
    previous = {
        "benchmarks": {"old": {}},
        "distributed": {"units": 6},
        "sched": {"pinned_ops_per_sec": 1.0},
        "serve": {"qps": 4000},
        "differential_fuzz": {"iters": 200},
        "retired": {"speedup": 4.0},
    }
    report = {"benchmarks": {"new": {}}, "sched": {"pinned_ops_per_sec": 2.0}}
    merged = run_bench.carry_forward(report, previous)
    assert merged["benchmarks"] == {"new": {}}
    assert merged["sched"] == {"pinned_ops_per_sec": 2.0}  # re-measured wins
    assert merged["distributed"] == {"units": 6}
    assert merged["serve"] == {"qps": 4000}
    assert merged["differential_fuzz"] == {"iters": 200}
    assert merged["carried_forward"] == ["distributed", "serve", "differential_fuzz"]
    # only the optional sections carry; retired ones do not come back
    assert "retired" not in merged


def test_nothing_to_carry(run_bench):
    report = {"benchmarks": {}}
    assert run_bench.carry_forward(report, None) == {"benchmarks": {}}
    assert run_bench.carry_forward(report, {"benchmarks": {"x": {}}}) == {
        "benchmarks": {}
    }


def test_previous_report_missing_or_corrupt(run_bench, tmp_path):
    assert run_bench.read_previous(tmp_path / "absent.json") is None
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": ')
    assert run_bench.read_previous(bad) is None
    good = tmp_path / "good.json"
    good.write_text('{"serve": {"qps": 1}}')
    assert run_bench.read_previous(good) == {"serve": {"qps": 1}}


def test_sweep_cache_timing_helpers(run_bench, tmp_path):
    """``time_sweep_cache`` and ``collect_metrics`` run a tiny sweep in a
    temporary store and leave the suite's store and memo as they were."""
    from repro import obs, pipeline

    restore = pipeline.get_disk_store()
    row = run_bench.time_sweep_cache(scale=0.03, threads=(1, 2))
    # counters cover the warm pass: served from disk, nothing simulated
    assert row["disk_hits"] == 2 and row["misses"] == 0
    assert row["hit_rate"] == 1.0
    assert row["cold_seconds"] > 0 and row["disk_warm_seconds"] > 0

    out = tmp_path / "metrics.jsonl"
    run_bench.collect_metrics(out)
    families = {m["name"] for m in obs.read_jsonl(out)["metrics"]}
    assert {"sweep_cache_lookups_total", "simx_runs_total"} <= families

    assert pipeline.get_disk_store() is restore
    assert pipeline.memo_info()["memory_entries"] == 0
