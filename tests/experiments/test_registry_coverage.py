"""Registry coverage: every experiment that performs simulator or
hardware-model work must *declare* exactly that work as pipeline units.

The enforcement is mechanical rather than a hand-maintained list: warm
every declared unit of every declaring experiment, then forbid the
inline execution paths (``Machine.run`` and the hardware executors) and
assemble all registered experiments.  A driver that sneaks simulator or
hardware work past its declare function — or a new experiment added
without one — trips the guard, naming the experiment; a driver that
resolves other units than it declares fails the exact-declaration check.
"""

import inspect

import pytest

from repro import pipeline
from repro.engine.scheduler import EngineSession
from repro.experiments.registry import (
    SPECS,
    declare_units,
    filter_options,
    run_experiment,
)
from repro.pipeline import resolve_units
from repro.simx import Machine

#: one option set for the whole registry, as ``runall`` would pass it
#: (fig2's claims index the 16-core point; ext-critical sweeps rl to 128)
OPTIONS = dict(scale=0.03, thread_counts=(1, 2, 16), n=128)


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
    fresh store, as ``runall``'s one resolve batch would."""
    root = tmp_path_factory.mktemp("coverage-store")
    restore = pipeline.get_disk_store()
    pipeline.set_disk_store(root)
    try:
        for eid in sorted(eid for eid, spec in SPECS.items() if spec.declares_units):
            units = declare_units(eid, **OPTIONS)
            assert units, f"{eid} is registered as declaring but emitted no units"
            resolve_units(units)
        yield
    finally:
        pipeline.set_disk_store(restore)


@pytest.fixture
def no_inline_simulation(warmed, monkeypatch):
    import repro.hardware.executor as hwexec

    monkeypatch.setattr(Machine, "run", _forbid)
    monkeypatch.setattr(hwexec, "model_breakdown", _forbid)


@pytest.mark.parametrize("eid", sorted(SPECS))
def test_assembles_on_warm_caches_alone(eid, no_inline_simulation):
    """With caches warm and inline execution forbidden, every registered
    experiment must still assemble its full report."""
    report = run_experiment(eid, **filter_options(eid, OPTIONS))
    assert report.experiment_id == SPECS[eid].experiment_id
    assert report.render()


@pytest.mark.parametrize("eid", sorted(SPECS))
def test_driver_resolves_exactly_the_units_it_declares(eid, no_inline_simulation,
                                                       monkeypatch):
    """On warm caches, the unit keys a driver resolves equal the keys its
    spec declares at the same options — not merely a subset of them."""
    resolved = set()
    run_units = EngineSession.run_units

    def spy(self, units, **kwargs):
        units = list(units)
        resolved.update(u.key for u in units)
        return run_units(self, units, **kwargs)

    monkeypatch.setattr(EngineSession, "run_units", spy)
    run_experiment(eid, **filter_options(eid, OPTIONS))
    assert resolved == {u.key for u in declare_units(eid, **OPTIONS)}


def test_declare_parameters_are_driver_parameters_without_defaults():
    """A declare function takes its driver's options by name and keeps no
    default of its own: the driver's defaults are the only ones."""
    for eid, spec in SPECS.items():
        if spec.declare is None:
            continue
        driver = inspect.signature(spec.assemble).parameters
        for name, param in inspect.signature(spec.declare).parameters.items():
            assert name in driver, f"{eid}: declare takes {name!r}, its driver does not"
            assert param.default is inspect.Parameter.empty, (
                f"{eid}: declare keeps a default for {name!r}")


def test_guard_trips_on_cold_caches(warmed, monkeypatch, tmp_path):
    """Sanity-check the instrument itself: with an empty store the guard
    must fire, proving the forbidden paths are really intercepted."""
    monkeypatch.setattr(Machine, "run", _forbid)
    restore = pipeline.get_disk_store()
    try:
        pipeline.set_disk_store(tmp_path / "cold")
        with pytest.raises(InlineSimulationForbidden):
            run_experiment("table2", **filter_options("table2", OPTIONS))
    finally:
        pipeline.set_disk_store(restore)
