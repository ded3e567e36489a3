"""Golden regression: canonical reports must not drift.

Each experiment here is run twice — serially and through a two-worker
engine session — and both results are compared byte-for-byte against the
committed golden JSON.  This catches three failure classes at once:

* silent changes to simulator timing semantics or the model maths;
* report-schema drift (column renames, float formatting);
* parallel/serial divergence (the engine's byte-identity contract).

To regenerate after an intentional change, see ``tests/golden/README.md``
(``REPRO_REGEN_GOLDEN=1``).
"""

import json
import multiprocessing as mp
import os
from pathlib import Path

import pytest

from repro import engine
from repro import pipeline
from repro.experiments.registry import run_experiment
from repro.experiments.store import report_to_dict

GOLDEN_DIR = Path(__file__).parent

#: experiment id → driver options pinned by the golden file
GOLDEN_CASES = {
    "table2": dict(scale=0.03, thread_counts=(1, 2, 4)),
    "fig4": {},
    "ext-contention": {},
    "ablation-topology": {},
}

fork_only = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="the parallel phase needs the fork start method",
)


def canonical_bytes(report) -> bytes:
    """The golden on-disk form: indented, key-sorted JSON."""
    return (json.dumps(report_to_dict(report), indent=2, sort_keys=True)
            + "\n").encode()


def _regen() -> bool:
    return os.environ.get("REPRO_REGEN_GOLDEN", "") == "1"


@pytest.fixture
def fresh_store(tmp_path):
    """Per-phase throwaway sweep stores so every phase really executes."""
    restore = pipeline.get_disk_store()

    def switch(name):
        pipeline.set_disk_store(tmp_path / name)
        pipeline.clear_memo()

    try:
        yield switch
    finally:
        pipeline.set_disk_store(restore)
        pipeline.clear_memo()


@pytest.mark.parametrize("experiment_id", sorted(GOLDEN_CASES))
def test_serial_run_matches_golden(experiment_id, fresh_store):
    fresh_store(f"{experiment_id}-serial")
    report = run_experiment(experiment_id, **GOLDEN_CASES[experiment_id])
    got = canonical_bytes(report)
    path = GOLDEN_DIR / f"{experiment_id}.json"
    if _regen():
        path.write_bytes(got)
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"missing golden file {path}; regenerate with REPRO_REGEN_GOLDEN=1"
    )
    assert got == path.read_bytes(), (
        f"{experiment_id} drifted from its golden report; if intentional, "
        "regenerate per tests/golden/README.md"
    )


@fork_only
@pytest.mark.parametrize("experiment_id", sorted(GOLDEN_CASES))
def test_parallel2_run_matches_golden(experiment_id, fresh_store):
    """--parallel 2 must reproduce the same bytes as the golden serial run."""
    path = GOLDEN_DIR / f"{experiment_id}.json"
    if _regen() and not path.exists():
        pytest.skip("regenerating: serial test writes the file")
    fresh_store(f"{experiment_id}-parallel")
    with engine.session(2):
        report = run_experiment(experiment_id, **GOLDEN_CASES[experiment_id])
    assert canonical_bytes(report) == path.read_bytes()


def test_golden_files_are_valid_reports():
    """The committed files parse and carry the expected experiment ids."""
    for experiment_id in GOLDEN_CASES:
        data = json.loads((GOLDEN_DIR / f"{experiment_id}.json").read_text())
        assert data["experiment_id"] == experiment_id
        assert data["tables"], f"{experiment_id} golden has no tables"
