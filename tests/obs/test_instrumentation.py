"""End-to-end instrumentation coverage (the PR's acceptance shape):
``repro run table2 --parallel 2 --metrics-out m.jsonl`` must emit
counters, histograms and spans covering the simulator, pool and cache
layers, and ``repro stats`` must render them."""

import json

import pytest

from repro import obs
from repro.cli import main
from repro import pipeline
from repro.simx import Machine, MachineConfig
from repro.simx.trace import Compute, Load, PhaseBegin, PhaseEnd, ThreadTrace, TraceProgram
from tests.obs.conftest import series_stats


@pytest.fixture
def fresh_store(tmp_path):
    restore = pipeline.get_disk_store()
    pipeline.set_disk_store(tmp_path / "store")
    try:
        yield
    finally:
        pipeline.set_disk_store(restore)


def _simple_program(n_rounds=50):
    ops = [PhaseBegin("parallel")]
    for i in range(n_rounds):
        ops.append(Compute(5))
        ops.append(Load((i % 8) * 64))
    ops.append(PhaseEnd("parallel"))
    return TraceProgram("probe", [ThreadTrace(0, ops)])


class TestSimulatorAccounting:
    def test_result_carries_op_and_burst_counts(self):
        prog = _simple_program()
        bat = Machine(MachineConfig(n_cores=2)).run(prog)
        ref = Machine(MachineConfig(n_cores=2, batch_path=False)).run(prog)
        assert bat.engine == "batch"
        assert ref.engine == "reference"
        assert bat.n_ops == ref.n_ops > 0
        assert bat.n_bursts > 0
        assert ref.n_bursts == 0
        # accounting fields never affect timing semantics
        assert bat.total_cycles == ref.total_cycles

    def test_run_records_metrics_once_per_run(self):
        obs.set_enabled(True)
        prog = _simple_program()
        result = Machine(MachineConfig(n_cores=2)).run(prog)
        runs = obs.REGISTRY.get("simx_runs_total")
        assert runs.value(engine=result.engine) == 1.0
        assert obs.REGISTRY.get("simx_ops_total").value() == result.n_ops
        assert obs.REGISTRY.get("simx_cycles_total").value() == result.total_cycles
        assert series_stats(obs.REGISTRY.get("simx_run_seconds"))["count"] == 1
        [s] = [s for s in obs.RECORDER.spans if s.name == "simx.run"]
        assert s.attrs["program"] == "probe"


def test_cli_metrics_out_covers_all_layers(tmp_path, capsys, fresh_store):
    """The acceptance command, end to end, through the real CLI."""
    out = tmp_path / "m.jsonl"
    events = tmp_path / "events.jsonl"
    rc = main([
        "run", "table2", "--scale", "0.03",
        "--parallel", "2", "--metrics-out", str(out),
        "--event-log", str(events),
    ])
    assert rc == 0
    kinds = [json.loads(line)["kind"] for line in events.read_text().splitlines()]
    assert kinds.count("worker_started") == 2
    assert "serial_fallback" not in kinds
    assert "[metrics written to" in capsys.readouterr().out
    assert not obs.enabled()  # the context restored the disabled default

    data = obs.read_jsonl(out)
    families = {m["name"] for m in data["metrics"]}
    # simulator layer (executed inside pool workers, shuttled back)
    assert {"simx_runs_total", "simx_ops_total", "simx_cycles_total",
            "simx_run_seconds"} <= families
    # engine/pool layer
    assert {"engine_unit_seconds", "engine_events_total",
            "engine_queue_depth"} <= families
    # cache layer
    assert "sweep_store_writes_total" in families
    # experiment layer
    assert "experiment_seconds" in families

    span_names = {s["name"] for s in data["spans"]}
    assert {"simx.run", "engine.batch", "experiment.run"} <= span_names
    # worker-side spans carry the worker id they came from
    assert any("worker" in s.get("attrs", {}) for s in data["spans"]
               if s["name"] == "simx.run")

    # the sweep executed on workers: runs == executed units, each
    # counted once
    runs = next(m for m in data["metrics"] if m["name"] == "simx_runs_total")
    total_runs = sum(s["value"] for s in runs["series"])
    events = next(m for m in data["metrics"] if m["name"] == "engine_events_total")
    [total_units] = [s["value"] for s in events["series"]
                     if s["labels"] == {"kind": "unit_done"}]
    assert total_runs == total_units > 0

    # and `repro stats` renders the same file without error
    rc = main(["stats", str(out)])
    rendered = capsys.readouterr().out
    assert rc == 0
    assert "simx_ops_total" in rendered
    assert "engine.batch" in rendered
    rc = main(["stats", str(out), "--prometheus"])
    prom = capsys.readouterr().out
    assert rc == 0
    assert "# TYPE simx_runs_total counter" in prom


def test_engine_session_serial_also_instruments(fresh_store):
    """Even the degraded serial pool records unit metrics and the close()
    metrics_snapshot event."""
    from repro import engine
    from repro.experiments.registry import run_experiment

    obs.set_enabled(True)
    with engine.session(1) as sess:
        run_experiment("table2", scale=0.03, thread_counts=(1, 2))
    events = obs.REGISTRY.get("engine_events_total")
    assert events.value(kind="unit_done") == sess.stats["executed"] == 6
    snap_events = [e for e in sess.events.events if e.kind == "metrics_snapshot"]
    assert len(snap_events) == 1
    assert any(f["name"] == "simx_ops_total" for f in snap_events[0].data["metrics"])
    assert "simx.run" in snap_events[0].data["spans"]


#: the engine and disk-store families: each records something no engine
#: event does (a queue depth, a latency distribution, a live worker count,
#: a swallowed write failure)
_ENGINE_AND_STORE_FAMILIES = {
    "engine_events_total", "engine_queue_depth", "engine_unit_seconds",
    "engine_remote_workers", "sweep_store_writes_total",
}


def test_each_settlement_is_counted_once(fresh_store):
    """The session's stats and its event stream are the one account of
    which tier settled a unit: a cold parallel run's executions and a warm
    run's disk hits each show once, and no other family re-counts them."""
    import asyncio

    from repro import engine
    from repro.experiments.registry import run_experiment
    from repro.serve import ServeApp

    obs.set_enabled(True)
    options = dict(scale=0.03, thread_counts=(1, 2))
    with engine.session(2) as cold:
        run_experiment("table2", **options)
    with engine.session(1) as warm:
        run_experiment("table2", **options)

    events = obs.REGISTRY.get("engine_events_total")
    [runs] = [sum(s["value"] for s in f["series"]) for f in obs.snapshot()
              if f["name"] == "simx_runs_total"]
    assert cold.stats["executed"] == 6
    assert events.value(kind="unit_done") == cold.stats["executed"] == runs
    assert warm.stats["cache_hits"] == 6
    assert events.value(kind="cache_hit") == warm.stats["cache_hits"]

    # a scrape registers nothing that mirrors the pipeline's tiers, and
    # the engine and store keep only the families events cannot replace
    asyncio.run(ServeApp().handle("GET", "/metrics", {}, b""))
    names = set(obs.REGISTRY._families)
    assert {n for n in names if n.startswith(("engine_", "sweep_"))} \
        == _ENGINE_AND_STORE_FAMILIES
    assert not [n for n in names if "pipeline" in n]
