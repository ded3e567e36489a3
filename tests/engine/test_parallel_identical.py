"""Determinism: a parallel run must be byte-identical to a serial run.

This is the engine's core contract (and an acceptance criterion for the
subsystem): parallelism changes only *where* sweep points execute, never
what any report contains.
"""

import json

import pytest

from repro import engine
from repro.cli import main
from repro import pipeline
from repro.experiments.registry import run_experiment
from repro.experiments.store import report_to_dict


@pytest.fixture
def fresh_store(tmp_path):
    """Point the sweep cache at per-phase throwaway dirs; restore after."""
    restore = pipeline.get_disk_store()

    def switch(name):
        pipeline.set_disk_store(tmp_path / name)

    try:
        yield switch
    finally:
        pipeline.set_disk_store(restore)


def as_bytes(report) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True)


def test_table2_parallel_report_is_byte_identical(fresh_store):
    options = dict(scale=0.03, thread_counts=(1, 2, 4))
    fresh_store("serial")
    serial = run_experiment("table2", **options)

    fresh_store("parallel")
    with engine.session(2) as sess:
        parallel = run_experiment("table2", **options)

    assert sess.stats["executed"] == 9  # the pool really did the work
    assert sess.events.count("worker_started") == 2
    assert sess.events.count("serial_fallback") == 0
    assert parallel.render() == serial.render()
    assert as_bytes(parallel) == as_bytes(serial)


def test_fig2_parallel_report_is_byte_identical(fresh_store):
    """Sweep points plus fig2's hardware-model stage, run on two real
    workers, must give the serial report's bytes."""
    options = dict(scale=0.03, thread_counts=(1, 2, 16))
    fresh_store("fig2")
    serial = run_experiment("fig2", **options)
    fresh_store("fig2-parallel")  # else the disk tier answers the parallel run
    with engine.session(2) as sess:
        parallel = run_experiment("fig2", **options)
    assert sess.stats["units"] == 21  # 3 workloads x (3 sweep + 4 hardware)
    assert sess.events.count("worker_started") == 2
    assert sess.events.count("serial_fallback") == 0
    assert as_bytes(parallel) == as_bytes(serial)


def test_fig4_parallel_report_is_byte_identical(fresh_store):
    """Model-only experiment: fig4 evaluates its closed-form grid in
    assemble and declares no units, so a parallel session runs nothing
    and starts no worker, and the report keeps its serial bytes."""
    fresh_store("fig4")
    serial = run_experiment("fig4")
    fresh_store("fig4-parallel")
    with engine.session(2) as sess:
        parallel = run_experiment("fig4")
    assert sess.stats["units"] == 0
    assert sess.events.count("worker_started") == 0
    assert as_bytes(parallel) == as_bytes(serial)


def test_cli_run_parallel_json_identical(tmp_path, capsys, fresh_store):
    """`repro run ext-falsesharing --parallel 4` runs its sim-program units
    on four workers and writes the same JSON as a serial run."""
    fresh_store("serial-store")
    assert main(["run", "ext-falsesharing", "--json", str(tmp_path / "serial")]) == 0
    fresh_store("parallel-store")  # else the caches answer the parallel run
    events = tmp_path / "events.jsonl"
    assert main([
        "run", "ext-falsesharing", "--parallel", "4",
        "--json", str(tmp_path / "parallel"), "--event-log", str(events),
    ]) == 0
    capsys.readouterr()
    serial = (tmp_path / "serial" / "ext-falsesharing.json").read_bytes()
    parallel = (tmp_path / "parallel" / "ext-falsesharing.json").read_bytes()
    assert parallel == serial
    kinds = [json.loads(line)["kind"] for line in events.read_text().splitlines()]
    assert kinds.count("worker_started") == 4
    assert "serial_fallback" not in kinds


def test_cli_run_fig4_parallel_json_identical(tmp_path, capsys, fresh_store):
    """`repro run fig4 --parallel 2` on an empty cache writes the serial
    run's JSON and starts no worker: fig4 declares nothing to run."""
    fresh_store("serial-store")
    assert main(["run", "fig4", "--json", str(tmp_path / "serial")]) == 0
    fresh_store("parallel-store")
    events = tmp_path / "events.jsonl"
    assert main([
        "run", "fig4", "--parallel", "2", "--json", str(tmp_path / "parallel"),
        "--event-log", str(events),
    ]) == 0
    capsys.readouterr()
    serial = (tmp_path / "serial" / "fig4.json").read_bytes()
    parallel = (tmp_path / "parallel" / "fig4.json").read_bytes()
    assert parallel == serial
    # the log is created with the session: a run with no event leaves an
    # empty file, not a missing one
    assert events.read_text() == ""
