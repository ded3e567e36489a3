"""Determinism: a parallel run must be byte-identical to a serial run.

This is the engine's core contract (and an acceptance criterion for the
subsystem): parallelism changes only *where* sweep points execute, never
what any report contains.
"""

import json
import multiprocessing as mp

import pytest

from repro import engine
from repro.cli import main
from repro import pipeline
from repro.experiments.registry import run_experiment
from repro.experiments.store import report_to_dict

fork_only = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="worker-pool tests need the fork start method",
)


@pytest.fixture
def fresh_store(tmp_path):
    """Point the sweep cache at per-phase throwaway dirs; restore after."""
    restore = pipeline.get_disk_store()

    def switch(name):
        pipeline.set_disk_store(tmp_path / name)
        pipeline.clear_memo()

    try:
        yield switch
    finally:
        pipeline.set_disk_store(restore)
        pipeline.clear_memo()


def as_bytes(report) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True)


@fork_only
def test_table2_parallel_report_is_byte_identical(fresh_store):
    options = dict(scale=0.03, thread_counts=(1, 2, 4))
    fresh_store("serial")
    serial = run_experiment("table2", **options)

    fresh_store("parallel")
    with engine.session(2) as sess:
        parallel = run_experiment("table2", **options)

    assert sess.stats["executed"] == 9  # the pool really did the work
    assert parallel.render() == serial.render()
    assert as_bytes(parallel) == as_bytes(serial)


def test_fig4_parallel_report_is_byte_identical(fresh_store):
    """Model-only experiment: the whole figure is one vectorized
    model-eval-grid unit; the --parallel path must still be a byte-level
    no-op on the report."""
    fresh_store("fig4")
    serial = run_experiment("fig4")
    with engine.session(2) as sess:
        parallel = run_experiment("fig4")
    assert sess.stats["units"] == 1
    assert as_bytes(parallel) == as_bytes(serial)


def test_cli_run_fig4_parallel_json_identical(tmp_path, capsys):
    """`repro run fig4 --parallel 4` writes the same JSON as a serial run."""
    assert main(["run", "fig4", "--json", str(tmp_path / "serial")]) == 0
    assert main([
        "run", "fig4", "--parallel", "4", "--json", str(tmp_path / "parallel"),
    ]) == 0
    capsys.readouterr()
    serial = (tmp_path / "serial" / "fig4.json").read_bytes()
    parallel = (tmp_path / "parallel" / "fig4.json").read_bytes()
    assert parallel == serial
