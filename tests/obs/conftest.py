"""Observability tests share one process-wide registry/recorder; every
test starts and ends with them disabled and empty.

``series_stats`` summarises one histogram series for the tests that
read it back."""

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.set_enabled(False)
    obs.reset()
    obs.RECORDER.clear()
    yield
    obs.set_enabled(False)
    obs.reset()
    obs.RECORDER.clear()


def series_stats(hist, **labels: str) -> dict:
    """``{count, sum, mean}`` for one series of ``hist`` (zeros when
    empty)."""
    hv = hist._series.get(hist._series_key(labels))
    if hv is None:
        return {"count": 0, "sum": 0.0, "mean": 0.0}
    return {
        "count": hv.count,
        "sum": hv.sum,
        "mean": hv.sum / hv.count if hv.count else 0.0,
    }
