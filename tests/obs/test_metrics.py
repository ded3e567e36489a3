"""MetricsRegistry semantics: types, labels, buckets, cardinality, merge."""

import pytest

from repro.obs import metrics
from repro.obs.metrics import (
    MAX_SERIES_PER_FAMILY,
    MetricError,
    MetricsRegistry,
)
from tests.obs.conftest import series_stats


def _reg():
    return MetricsRegistry(enabled=True)


class TestRegistration:
    def test_idempotent_same_shape(self):
        reg = _reg()
        a = reg.counter("c", "help", labels=("x",))
        b = reg.counter("c", "other help ignored", labels=("x",))
        assert a is b

    def test_conflicting_type_raises(self):
        reg = _reg()
        reg.counter("m")
        with pytest.raises(MetricError, match="already registered"):
            reg.gauge("m")

    def test_conflicting_labels_raise(self):
        reg = _reg()
        reg.counter("m", labels=("a",))
        with pytest.raises(MetricError, match="already registered"):
            reg.counter("m", labels=("a", "b"))

    def test_get_returns_family_or_none(self):
        reg = _reg()
        fam = reg.gauge("g")
        assert reg.get("g") is fam
        assert reg.get("nope") is None


class TestCounter:
    def test_inc_and_value(self):
        c = _reg().counter("c", labels=("k",))
        c.inc(k="a")
        c.inc(2.5, k="a")
        c.inc(k="b")
        assert c.value(k="a") == 3.5
        assert c.value(k="b") == 1.0
        assert c.value(k="never") == 0.0

    def test_negative_increment_rejected(self):
        c = _reg().counter("c")
        with pytest.raises(MetricError, match="cannot decrease"):
            c.inc(-1)

    def test_wrong_label_set_rejected(self):
        c = _reg().counter("c", labels=("x",))
        with pytest.raises(MetricError, match="takes labels"):
            c.inc(y="oops")
        with pytest.raises(MetricError, match="takes labels"):
            c.inc()  # missing the declared label entirely

    def test_disabled_is_noop(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("c")
        c.inc(100)
        assert c.value() == 0.0
        assert reg.snapshot() == []


class TestGauge:
    def test_set_inc_dec(self):
        g = _reg().gauge("g")
        g.set(10)
        g.inc(5)
        g.inc(-2)
        assert g.value() == 13.0


class TestHistogramBuckets:
    def test_le_semantics_on_exact_boundary(self):
        """A value equal to a bound counts in THAT bucket (Prometheus le)."""
        h = _reg().histogram("h", buckets=(1.0, 2.0, 5.0))
        h.observe(2.0)
        d = h.to_dict()["series"][0]
        assert d["buckets"] == {"1.0": 0, "2.0": 1, "5.0": 1, "+Inf": 1}
        assert d["count"] == 1
        assert d["sum"] == 2.0

    def test_buckets_are_cumulative(self):
        h = _reg().histogram("h", buckets=(1.0, 2.0, 5.0))
        for v in (0.5, 1.5, 1.7, 4.0, 100.0):
            h.observe(v)
        d = h.to_dict()["series"][0]
        assert d["buckets"] == {"1.0": 1, "2.0": 3, "5.0": 4, "+Inf": 5}
        assert d["sum"] == pytest.approx(107.7)

    def test_overflow_value_lands_only_in_inf(self):
        h = _reg().histogram("h", buckets=(1.0,))
        h.observe(9.9)
        d = h.to_dict()["series"][0]
        assert d["buckets"] == {"1.0": 0, "+Inf": 1}

    def test_buckets_sorted_and_deduped(self):
        h = _reg().histogram("h", buckets=(5.0, 1.0, 2.0))
        assert h.buckets == (1.0, 2.0, 5.0)
        with pytest.raises(MetricError, match="duplicate"):
            _reg().histogram("h2", buckets=(1.0, 1.0))
        with pytest.raises(MetricError, match="at least one"):
            _reg().histogram("h3", buckets=())

    def test_series_stats(self):
        h = _reg().histogram("h", buckets=(1.0,))
        assert series_stats(h) == {"count": 0, "sum": 0.0, "mean": 0.0}
        h.observe(0.5)
        h.observe(1.5)
        assert series_stats(h) == {"count": 2, "sum": 2.0, "mean": 1.0}


class TestCardinality:
    def test_overflow_folds_into_sentinel_series(self, monkeypatch):
        monkeypatch.setattr(metrics, "MAX_SERIES_PER_FAMILY", 3)
        c = _reg().counter("c", labels=("id",))
        for i in range(10):
            c.inc(id=str(i))
        # 3 real series plus the fold-over series holding the excess
        snap = c.to_dict()["series"]
        labels = [s["labels"]["id"] for s in snap]
        assert len(labels) == 4
        assert "__overflow__" in labels
        assert c.value(id="0") == 1.0
        overflow = next(s for s in snap if s["labels"]["id"] == "__overflow__")
        assert overflow["value"] == 7.0

    def test_default_cap_is_generous(self):
        assert MAX_SERIES_PER_FAMILY >= 256


class TestSnapshotMerge:
    def test_counters_add(self):
        a, b = _reg(), _reg()
        a.counter("c", labels=("k",)).inc(2, k="x")
        b.counter("c", labels=("k",)).inc(3, k="x")
        b.counter("c", labels=("k",)).inc(1, k="y")
        a.merge_snapshot(b.snapshot())
        c = a.get("c")
        assert c.value(k="x") == 5.0
        assert c.value(k="y") == 1.0

    def test_gauges_take_incoming(self):
        a, b = _reg(), _reg()
        a.gauge("g").set(10)
        b.gauge("g").set(3)
        a.merge_snapshot(b.snapshot())
        assert a.get("g").value() == 3.0

    def test_histograms_add_bucketwise(self):
        a, b = _reg(), _reg()
        ha = a.histogram("h", buckets=(1.0, 2.0))
        hb = b.histogram("h", buckets=(1.0, 2.0))
        ha.observe(0.5)
        hb.observe(1.5)
        hb.observe(5.0)
        a.merge_snapshot(b.snapshot())
        d = ha.to_dict()["series"][0]
        assert d["buckets"] == {"1.0": 1, "2.0": 2, "+Inf": 3}
        assert d["count"] == 3
        assert d["sum"] == pytest.approx(7.0)

    def test_unknown_family_created_on_the_fly(self):
        a, b = _reg(), _reg()
        b.counter("fresh").inc(4)
        b.histogram("fresh_h", buckets=(1.0, 8.0)).observe(3)
        a.merge_snapshot(b.snapshot())
        assert a.get("fresh").value() == 4.0
        assert series_stats(a.get("fresh_h"))["count"] == 1

    def test_malformed_entries_skipped(self):
        a = _reg()
        a.counter("ok").inc()
        a.merge_snapshot([{"nonsense": True}, {"name": "x", "type": "wat"}])
        assert a.get("ok").value() == 1.0

    def test_merge_works_even_when_target_disabled(self):
        """Merging a worker delta must not depend on the enable switch —
        write-back happens after the parent may have disabled recording."""
        src = _reg()
        src.counter("c").inc(2)
        dst = MetricsRegistry(enabled=False)
        dst.merge_snapshot(src.snapshot())
        assert dst.get("c").value() == 2.0

    def test_reset_keeps_families(self):
        reg = _reg()
        reg.counter("c").inc(5)
        reg.reset()
        assert reg.snapshot() == []
        assert reg.get("c") is not None
        reg.counter("c").inc(1)
        assert reg.get("c").value() == 1.0


class TestEnvSwitch:
    def test_env_enables_fresh_registry(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "1")
        assert MetricsRegistry().enabled
        monkeypatch.setenv("REPRO_OBS", "off")
        assert not MetricsRegistry().enabled
        monkeypatch.delenv("REPRO_OBS")
        assert not MetricsRegistry().enabled
