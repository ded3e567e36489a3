"""Report JSON round-trips, for every registered experiment.

``save_report`` → ``load_report`` must lose nothing the renderer shows:
the reloaded report's ``render()`` output is byte-identical to the
original's.  This pins the serialisation schema against the whole
registry — any driver that sneaks a non-JSON-stable value (a numpy
scalar, a tuple cell) into a table or comparison fails here, naming the
experiment.
"""

import json

import pytest

from repro.experiments.registry import SPECS, filter_options, run_experiment
from repro.experiments.store import (
    load_report,
    report_from_dict,
    report_to_dict,
    save_report,
)

#: one tiny option set for the whole registry; each driver takes its own
#: subset (fig2's claims index the 16-core point, hence 16 in the list)
OPTIONS = dict(
    scale=0.03,
    thread_counts=(1, 2, 16),
    n=128,  # ext-critical's ACS table sweeps rl up to 128
)

_reports: dict = {}


def _report(eid):
    if eid not in _reports:
        _reports[eid] = run_experiment(eid, **filter_options(eid, OPTIONS))
    return _reports[eid]


@pytest.mark.parametrize("eid", sorted(SPECS))
def test_roundtrip_render_is_byte_identical(eid, tmp_path):
    report = _report(eid)
    path = save_report(report, tmp_path / f"{eid}.json")
    reloaded = load_report(path)
    assert reloaded.render() == report.render()
    assert reloaded.all_match == report.all_match


@pytest.mark.parametrize("eid", sorted(SPECS))
def test_serialised_form_is_pure_json(eid):
    """The dict form must survive dumps/loads untouched — nothing in it
    may rely on ``default=str`` coercion (which would corrupt a reload)."""
    data = report_to_dict(_report(eid))
    rehydrated = json.loads(json.dumps(data))
    assert rehydrated == data
    assert report_from_dict(rehydrated).render() == _report(eid).render()
