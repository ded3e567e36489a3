"""The tentpole contract, for *every* experiment at once: a ``runall``
with a parallel engine session — one globally-deduplicated precompute
pass over the union of all declared units, then assembly — produces
byte-identical reports to a plain serial loop.

This extends the table2/fig4 identity tests to the full registry: sim
sweeps, config-bearing sweep points (ACMP, crossover, machine variants),
hand-built trace programs, hardware-model runs and model-eval grids all
flow through the same declare/assemble substrate.
"""

import json
import multiprocessing as mp

import pytest

from repro import engine
from repro import pipeline
from repro.experiments.registry import filter_options, run_experiment
from repro.experiments.store import report_to_dict

fork_only = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="worker-pool tests need the fork start method",
)

#: one option set for the whole batch, exactly as ``repro runall`` passes
#: it — each driver/stage receives only the knobs it accepts.  fig2 needs
#: 16 in thread_counts (its claims index the 16-core point).
OPTIONS = dict(
    scale=0.03,
    thread_counts=(1, 2, 16),
    hw_thread_counts=(1, 2),
    n=128,  # ext-critical's ACS table sweeps rl up to 128
    max_cores=64,
    budget=4,
    n_items=2000,
    n_bins=256,
    updates=50,
    updates_per_thread=200,
    batch=32,
    merge_elements=64,
    rl=4,
    n_threads=2,
)


def _runall_ids():
    from repro.cli import _all_experiment_ids

    return _all_experiment_ids()


def _reports(ids):
    return {
        eid: json.dumps(report_to_dict(
            run_experiment(eid, **filter_options(eid, OPTIONS))
        ), sort_keys=True)
        for eid in ids
    }


@fork_only
def test_runall_parallel_matches_serial_for_every_experiment(tmp_path):
    ids = _runall_ids()
    restore = pipeline.get_disk_store()
    try:
        pipeline.set_disk_store(tmp_path / "serial")
        pipeline.clear_memo()
        serial = _reports(ids)

        pipeline.set_disk_store(tmp_path / "parallel")
        pipeline.clear_memo()
        with engine.session(2) as sess:
            engine.precompute(sess, ids, OPTIONS)
            parallel = _reports(ids)

        # the precompute genuinely executed work, and the cross-experiment
        # dedup collapsed the table2/fig2 shared sweep to single units
        assert sess.stats["executed"] > 0
        assert sess.stats["deduped"] > 0
        for eid in ids:
            assert parallel[eid] == serial[eid], f"{eid} diverged"
    finally:
        pipeline.set_disk_store(restore)
        pipeline.clear_memo()
