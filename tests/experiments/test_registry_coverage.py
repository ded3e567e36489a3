"""Registry coverage: every experiment that performs simulator or
hardware-model work must *declare* that work as pipeline units.

The enforcement is mechanical rather than a hand-maintained list: warm
every declared unit of every declaring experiment, then forbid the
inline execution paths (``Machine.run`` and the hardware executors) and
assemble all registered experiments.  A driver that sneaks simulator or
hardware work past its declare stage — or a new experiment added without
one — trips the guard, naming the experiment.
"""

import pytest

from repro import pipeline
from repro.experiments.registry import (
    SPECS,
    SWEEP_DECLARATIONS,
    declare_units,
    filter_options,
    run_experiment,
)
from repro.pipeline import resolve_units
from repro.simx import Machine

#: one option set for the whole registry, as ``runall`` would pass it
#: (fig2's claims index the 16-core point; ext-critical sweeps rl to 128)
OPTIONS = dict(
    scale=0.03,
    thread_counts=(1, 2, 16),
    hw_thread_counts=(1, 2),
    n=128,
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


class InlineSimulationForbidden(AssertionError):
    """Raised when assembly reaches an execution path it should have
    declared (and therefore found warm in a cache)."""


def _forbid(*args, **kwargs):
    raise InlineSimulationForbidden(
        "assemble phase invoked the simulator/hardware inline; "
        "this work must be declared as pipeline units"
    )


@pytest.fixture(scope="module")
def warmed(tmp_path_factory):
    """Resolve every declared unit of every declaring experiment into a
    fresh store, exactly as ``runall``'s precompute pass would."""
    root = tmp_path_factory.mktemp("coverage-store")
    restore = pipeline.get_disk_store()
    pipeline.set_disk_store(root)
    pipeline.clear_memo()
    try:
        for eid in sorted(SWEEP_DECLARATIONS):
            units = declare_units(eid, **OPTIONS)
            assert units, f"{eid} is registered as declaring but emitted no units"
            resolve_units(units)
        yield
    finally:
        pipeline.set_disk_store(restore)
        pipeline.clear_memo()


@pytest.fixture
def no_inline_simulation(warmed, monkeypatch):
    import repro.hardware.executor as hwexec

    monkeypatch.setattr(Machine, "run", _forbid)
    monkeypatch.setattr(hwexec, "model_breakdown", _forbid)
    monkeypatch.setattr(hwexec, "process_breakdown", _forbid)


@pytest.mark.parametrize("eid", sorted(SPECS))
def test_assembles_on_warm_caches_alone(eid, no_inline_simulation):
    """With caches warm and inline execution forbidden, every registered
    experiment must still assemble its full report."""
    report = run_experiment(eid, **filter_options(eid, OPTIONS))
    assert report.experiment_id == SPECS[eid].experiment_id
    assert report.render()


def test_every_staged_spec_is_collected_as_declaring():
    staged = {eid for eid, spec in SPECS.items() if spec.declares_units}
    assert staged == set(SWEEP_DECLARATIONS)


def test_guard_trips_on_cold_caches(warmed, monkeypatch, tmp_path):
    """Sanity-check the instrument itself: with an empty store the guard
    must fire, proving the forbidden paths are really intercepted."""
    monkeypatch.setattr(Machine, "run", _forbid)
    restore = pipeline.get_disk_store()
    try:
        pipeline.set_disk_store(tmp_path / "cold")
        pipeline.clear_memo()
        with pytest.raises(InlineSimulationForbidden):
            run_experiment("table2", **filter_options("table2", OPTIONS))
    finally:
        pipeline.set_disk_store(restore)
        pipeline.clear_memo()
