"""The tentpole contract, for *every* experiment at once: a ``runall``
with a parallel engine session — one ``run_experiments`` batch that
settles the union of all declared units, then assembly — produces
byte-identical reports to a plain serial loop of ``run_experiment``.

This extends the table2/fig4 identity tests to the full registry: sim
sweeps, config-bearing sweep points (ACMP, crossover, machine variants),
hand-built trace programs, hardware-model runs and model-eval grids all
flow through the same declare/assemble substrate.
"""

import json

from repro import engine
from repro import pipeline
from repro.experiments.registry import filter_options, run_experiment, run_experiments
from repro.experiments.store import report_to_dict


#: one option set for the whole batch, exactly as ``repro runall`` passes
#: it — each driver receives only the knobs it accepts.  fig2 needs 16 in
#: thread_counts (its claims index the 16-core point).
OPTIONS = dict(
    scale=0.03,
    thread_counts=(1, 2, 16),
    n=128,  # ext-critical's ACS table sweeps rl up to 128
)


def _runall_ids():
    from repro.cli import _all_experiment_ids

    return _all_experiment_ids()


def _encode(report) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True)


def test_runall_parallel_matches_serial_for_every_experiment(tmp_path):
    ids = _runall_ids()
    restore = pipeline.get_disk_store()
    try:
        pipeline.set_disk_store(tmp_path / "serial")
        serial = {eid: _encode(run_experiment(eid, **filter_options(eid, OPTIONS)))
                  for eid in ids}

        pipeline.set_disk_store(tmp_path / "parallel")
        with engine.session(2) as sess:
            parallel = dict(zip(ids, map(_encode, run_experiments(
                (eid, filter_options(eid, OPTIONS)) for eid in ids))))

        # the batch genuinely executed work, and the cross-experiment
        # dedup collapsed the table2/fig2 shared sweep to single units
        assert sess.stats["executed"] > 0
        assert sess.stats["deduped"] > 0
        assert sess.events.count("worker_started") == 2
        assert sess.events.count("serial_fallback") == 0
        for eid in ids:
            assert parallel[eid] == serial[eid], f"{eid} diverged"
    finally:
        pipeline.set_disk_store(restore)
