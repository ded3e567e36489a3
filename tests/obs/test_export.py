"""Exporters: Prometheus text format, JSONL round-trip, stats rendering,
and the drain/merge worker shuttle."""

import json

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecorder, span
from tests.obs.conftest import series_stats


def _populated_registry():
    reg = MetricsRegistry(enabled=True)
    reg.counter("runs_total", "runs", labels=("engine",)).inc(3, engine="fast")
    reg.gauge("depth", "queue depth").set(2)
    h = reg.histogram("latency_seconds", "latency", buckets=(0.25, 1.0))
    h.observe(0.25)  # 0.25 + 0.5 is exact in binary: stable _sum text
    h.observe(0.5)
    return reg


class TestPrometheus:
    def test_exposition_format(self):
        text = obs.render_prometheus(_populated_registry())
        lines = text.splitlines()
        assert "# TYPE runs_total counter" in lines
        assert 'runs_total{engine="fast"} 3' in lines
        assert "# TYPE depth gauge" in lines
        assert "depth 2" in lines
        assert "# TYPE latency_seconds histogram" in lines
        assert 'latency_seconds_bucket{le="0.25"} 1' in lines
        assert 'latency_seconds_bucket{le="1"} 2' in lines
        assert 'latency_seconds_bucket{le="+Inf"} 2' in lines
        assert "latency_seconds_sum 0.75" in lines
        assert "latency_seconds_count 2" in lines
        assert text.endswith("\n")

    def test_empty_registry_renders_empty(self):
        assert obs.render_prometheus(MetricsRegistry(enabled=True)) == ""


class TestLabelEscaping:
    """The exposition format requires ``\\``, ``"`` and newline escaped
    inside label values — unescaped they corrupt the whole scrape."""

    def _render_with_label(self, value):
        reg = MetricsRegistry(enabled=True)
        reg.counter("events_total", "events", labels=("src",)).inc(1, src=value)
        return obs.render_prometheus(reg)

    def test_double_quote_is_escaped(self):
        text = self._render_with_label('say "hi"')
        assert 'events_total{src="say \\"hi\\""} 1' in text.splitlines()

    def test_backslash_is_escaped(self):
        text = self._render_with_label("C:\\temp")
        assert 'events_total{src="C:\\\\temp"} 1' in text.splitlines()

    def test_newline_is_escaped(self):
        text = self._render_with_label("line1\nline2")
        assert 'events_total{src="line1\\nline2"} 1' in text.splitlines()
        # the series must still be one physical line
        assert all("events_total" not in line or "line2" in line
                   for line in text.splitlines() if "line1" in line)

    def test_backslash_before_quote_stays_unambiguous(self):
        # \" in the input must render as \\\" (escaped backslash, then
        # escaped quote) — escaping order matters
        text = self._render_with_label('\\"')
        assert 'events_total{src="\\\\\\""} 1' in text.splitlines()

    def test_plain_values_unchanged(self):
        text = self._render_with_label("fast")
        assert 'events_total{src="fast"} 1' in text.splitlines()


class TestJsonlRoundTrip:
    def test_metrics_and_spans_roundtrip(self, tmp_path):
        reg = _populated_registry()
        rec = SpanRecorder()
        obs.set_enabled(True)
        with span("outer", recorder=rec):
            with span("inner", recorder=rec):
                pass
        path = obs.write_jsonl(tmp_path / "m.jsonl", registry=reg,
                               recorder=rec, meta={"command": "test"})
        data = obs.read_jsonl(path)
        assert data["meta"]["command"] == "test"
        assert data["meta"]["schema"] == 1
        by_name = {m["name"]: m for m in data["metrics"]}
        assert by_name["runs_total"]["type"] == "counter"
        assert by_name["latency_seconds"]["type"] == "histogram"
        assert by_name["runs_total"]["series"][0]["value"] == 3
        # spans stream in completion order: children before parents
        assert [s["name"] for s in data["spans"]] == ["inner", "outer"]
        assert data["spans"][0]["depth"] == 1

    def test_roundtrip_survives_merge(self, tmp_path):
        """read → merge_snapshot must reproduce the original values."""
        reg = _populated_registry()
        path = obs.write_jsonl(tmp_path / "m.jsonl", registry=reg,
                               recorder=SpanRecorder())
        data = obs.read_jsonl(path)
        rebuilt = MetricsRegistry(enabled=True)
        rebuilt.merge_snapshot(data["metrics"])
        assert rebuilt.get("runs_total").value(engine="fast") == 3.0
        assert rebuilt.get("depth").value() == 2.0
        assert series_stats(rebuilt.get("latency_seconds"))["count"] == 2

    def test_truncated_trailing_line_skipped(self, tmp_path):
        path = obs.write_jsonl(tmp_path / "m.jsonl",
                               registry=_populated_registry(),
                               recorder=SpanRecorder())
        with path.open("a") as fh:
            fh.write('{"type": "metric", "name": "trunc')  # killed mid-write
        data = obs.read_jsonl(path)
        assert all(m["name"] != "trunc" for m in data["metrics"])
        assert len(data["metrics"]) == 3


class TestRenderStats:
    def test_tables_cover_all_shapes(self, tmp_path):
        reg = _populated_registry()
        rec = SpanRecorder()
        obs.set_enabled(True)
        with span("slow.op", recorder=rec, key="v"):
            pass
        path = obs.write_jsonl(tmp_path / "m.jsonl", registry=reg, recorder=rec)
        out = obs.render_stats(obs.read_jsonl(path))
        assert 'runs_total{engine="fast"}' in out
        assert "latency_seconds" in out
        assert "slow.op" in out
        assert "slowest spans" in out
        assert "key=v" in out

    def test_empty_data_has_placeholder(self):
        out = obs.render_stats({"meta": {}, "metrics": [], "spans": []})
        assert "no metrics" in out


class TestDrainMerge:
    def test_drain_none_when_disabled(self):
        assert obs.drain() is None

    def test_drain_none_when_enabled_but_empty(self):
        obs.set_enabled(True)
        assert obs.drain() is None

    def test_drain_resets_and_merge_restores(self):
        obs.set_enabled(True)
        obs.counter("worker_metric").inc(5)
        with span("worker.span"):
            pass
        delta = obs.drain()
        assert delta is not None
        # drained: the default registry/recorder are empty again
        assert obs.snapshot() == []
        assert obs.RECORDER.spans == []
        # delta is queue-safe (plain JSON-able data)
        json.dumps(delta)
        obs.merge_delta(delta, worker=7)
        assert obs.REGISTRY.get("worker_metric").value() == 5.0
        [s] = obs.RECORDER.spans
        assert s.name == "worker.span"
        assert s.attrs["worker"] == 7

    def test_merge_delta_ignores_none(self):
        obs.merge_delta(None)
        assert obs.RECORDER.spans == []
