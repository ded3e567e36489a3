"""The runner declares each experiment once and resolves once.

``run_experiments`` declares every requested experiment, settles the
union of their units in one ``EngineSession.run_units`` batch, and hands
each driver its own units and the payloads; no driver declares or
resolves anything of its own.
"""

import ast
import dataclasses
import functools
from collections import Counter
from pathlib import Path

import pytest

import repro.experiments.table4 as table4
import repro.workloads as workloads
from repro import engine
from repro.engine.scheduler import EngineSession
from repro.pipeline import ExperimentSpec
from repro.experiments import registry
from repro.workloads.datasets import TABLE4_DATASETS

IDS = ("table2", "fig2", "table4")
#: small enough for a cold store; fig2 needs no 16-core point to assemble
OPTIONS = dict(scale=0.03, thread_counts=(1, 2))


@pytest.fixture
def counted(monkeypatch):
    """Count declare calls per experiment, dataset builds per builder, and
    run_units batches."""
    counts = Counter()

    def count(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for eid in IDS:
        spec = registry.SPECS[eid]
        monkeypatch.setitem(registry.SPECS, eid, dataclasses.replace(
            spec, declare=count(eid, spec.declare)))
    # default_workloads (table2, fig2) and table4 call them by these names
    for module in (workloads, table4):
        for builder in ("make_blobs", "make_particles"):
            monkeypatch.setattr(module, builder,
                                count(builder, getattr(module, builder)))
    monkeypatch.setattr(EngineSession, "run_units",
                        count("run_units", EngineSession.run_units))
    return counts


def test_each_experiment_declares_once_and_resolves_in_one_batch(counted, tmp_path):
    from repro import pipeline

    restore = pipeline.get_disk_store()
    try:
        pipeline.set_disk_store(tmp_path / "store")
        with engine.session(1) as sess:
            reports = list(registry.run_experiments(
                (eid, registry.filter_options(eid, OPTIONS)) for eid in IDS))
    finally:
        pipeline.set_disk_store(restore)
    assert [r.experiment_id for r in reports] == list(IDS)
    assert {eid: counted[eid] for eid in IDS} == dict.fromkeys(IDS, 1)
    # one builder call per dataset a declaration names: table2 and fig2
    # each declare the three default workloads (two blob sets and one
    # particle set), table4 its ten variants (eight blob sets, two
    # particle sets); fig2's calls hand back table2's live datasets
    assert counted["make_blobs"] == 2 + 2 + 8
    assert counted["make_particles"] == 1 + 1 + 2
    assert counted["run_units"] == 1
    # 2 x 3 workloads x 2 points shared by table2 and fig2, fig2's 3 x 4
    # hardware points, table4's 10 variants x 2 points
    assert sess.stats["units"] - sess.stats["deduped"] == 6 + 12 + 20


@pytest.fixture
def assembled(monkeypatch):
    """Record the order specs assemble in; each report is its id, and
    nothing resolves."""
    order = []

    def run(self, units, payloads, **options):
        order.append(self.experiment_id)
        if self.experiment_id == "table4":
            raise RuntimeError("table4 failed")
        return self.experiment_id

    monkeypatch.setattr(ExperimentSpec, "run", run)
    monkeypatch.setattr(registry, "resolve_units", lambda units: {})
    return order


def _requests(ids):
    return [(eid, registry.filter_options(eid, OPTIONS)) for eid in ids]


def test_declaring_drivers_assemble_first_and_reports_keep_request_order(assembled):
    """Declared units (and their datasets) are dropped before any
    model-only driver runs, and the reports still come in request order."""
    ids = ("fig4", "table2", "table1", "fig2")
    assert list(registry.run_experiments(_requests(ids))) == list(ids)
    assert assembled == ["table2", "fig2", "fig4", "table1"]


def test_a_declaring_drivers_error_is_raised_at_its_place(assembled):
    reports = registry.run_experiments(_requests(("fig4", "table4", "table2")))
    assert next(reports) == "fig4"
    with pytest.raises(RuntimeError, match="table4 failed"):
        next(reports)
    assert assembled == ["table4", "fig4"]


def test_table2_and_fig2_hold_one_copy_of_their_datasets():
    table2 = registry.declare_units("table2", **OPTIONS)
    fig2 = registry.declare_units("fig2", **OPTIONS)
    datasets = {id(u.spec[0].dataset) for u in table2}
    assert len(datasets) == 3
    assert {id(u.spec[0].dataset) for u in fig2} == datasets


def test_table4_rows_are_labelled_in_variant_order():
    """table4 labels its rows with TABLE4_DATASETS instead of rebuilding
    the variant grid, so the grid must list its variants in that order."""
    assert tuple(table4._variants(0.01)) == TABLE4_DATASETS


def _source_names(path: Path) -> "set[str]":
    """Every name and imported module a source file mentions."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
    return names


def test_only_the_runner_resolves_and_the_scheduler_does_not_reach_up():
    src = Path(registry.__file__).resolve().parent
    resolving = sorted(p.name for p in src.glob("*.py")
                       if "resolve_units" in _source_names(p))
    assert resolving == ["registry.py"]
    scheduler = src.parent / "engine" / "scheduler.py"
    upward = sorted(n for n in _source_names(scheduler)
                    if n.startswith(("repro.experiments", "repro.pipeline")))
    assert upward == []
