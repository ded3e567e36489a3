"""Exporters: Prometheus text format, JSONL snapshots, and the ``repro
stats`` renderer.

Three output shapes for one registry + span recorder:

* :func:`render_prometheus` — the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` headers, ``_bucket``/``_sum``/``_count``
  histogram series), so a scrape endpoint or a pushgateway shim needs no
  further translation;
* :func:`write_jsonl` / :func:`read_jsonl` — one JSON object per line:
  a ``meta`` header, then one ``metric`` line per family, then one
  ``span`` line per completed span (children before parents — completion
  order).  This is what ``--metrics-out`` produces and ``repro stats``
  consumes;
* :func:`render_stats` — a human-readable terminal summary of a JSONL
  file (or live registry state).

:func:`drain` and :func:`merge_delta` are the worker-process shuttle:
a worker drains its registry+recorder into a plain dict after each work
unit, ships it in the unit's result frame, and the coordinator folds it
back in.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.obs import metrics as _metrics
from repro.obs import spans as _spans
from repro.util.tables import TextTable

__all__ = [
    "render_prometheus",
    "write_jsonl",
    "read_jsonl",
    "render_stats",
    "drain",
    "merge_delta",
]

_JSONL_SCHEMA = 1


def _format_value(v: float) -> str:
    """Prometheus-style number: integers without the trailing ``.0``."""
    f = float(v)
    return str(int(f)) if f.is_integer() else repr(f)


def _escape_label_value(value: object) -> str:
    """Escape a label value per the Prometheus text exposition format:
    backslash, double-quote and line feed (in that order — escaping the
    backslash first keeps the other two escapes unambiguous)."""
    return (str(value)
            .replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n"))


def _label_str(labels: dict, extra: "dict | None" = None) -> str:
    merged = {**labels, **(extra or {})}
    if not merged:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"'
                     for k, v in merged.items())
    return "{" + inner + "}"


def render_prometheus(registry: "_metrics.MetricsRegistry | None" = None) -> str:
    """The registry's state in the Prometheus text exposition format."""
    reg = _metrics.REGISTRY if registry is None else registry
    lines: list[str] = []
    for fam in reg.snapshot():
        name = fam["name"]
        if fam["help"]:
            lines.append(f"# HELP {name} {fam['help']}")
        lines.append(f"# TYPE {name} {fam['type']}")
        for s in fam["series"]:
            labels = s["labels"]
            if fam["type"] == "histogram":
                for bound, count in s["buckets"].items():
                    le = bound if bound == "+Inf" else _format_value(float(bound))
                    lines.append(
                        f"{name}_bucket{_label_str(labels, {'le': le})} {count}"
                    )
                lines.append(f"{name}_sum{_label_str(labels)} "
                             f"{_format_value(s['sum'])}")
                lines.append(f"{name}_count{_label_str(labels)} {s['count']}")
            else:
                lines.append(f"{name}{_label_str(labels)} "
                             f"{_format_value(s['value'])}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(
    path: "str | Path",
    registry: "_metrics.MetricsRegistry | None" = None,
    recorder: "_spans.SpanRecorder | None" = None,
    meta: "dict | None" = None,
) -> Path:
    """Write metrics then spans as JSONL; returns the path."""
    reg = _metrics.REGISTRY if registry is None else registry
    rec = _spans.RECORDER if recorder is None else recorder
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with p.open("w") as fh:
        header = {"type": "meta", "schema": _JSONL_SCHEMA, "written_at": time.time()}
        if meta:
            header.update(meta)
        fh.write(json.dumps(header, sort_keys=True, default=str) + "\n")
        for fam in reg.snapshot():
            record = dict(fam)
            record["metric_type"] = record.pop("type")
            fh.write(json.dumps({"type": "metric", **record},
                                sort_keys=True, default=str) + "\n")
        for s in rec.to_dicts():
            fh.write(json.dumps({"type": "span", **s},
                                sort_keys=True, default=str) + "\n")
    return p


def read_jsonl(path: "str | Path") -> dict:
    """Parse a :func:`write_jsonl` file into ``{meta, metrics, spans}``.

    Unparsable lines are skipped (a truncated trailing line must not make
    the whole file unreadable)."""
    meta: dict = {}
    metrics: list[dict] = []
    spans: list[dict] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        kind = obj.get("type")
        if kind == "meta":
            meta = obj
        elif kind == "metric":
            fam = dict(obj)
            fam.pop("type", None)
            fam["type"] = fam.pop("metric_type", "untyped")
            metrics.append(fam)
        elif kind == "span":
            spans.append(obj)
    return {"meta": meta, "metrics": metrics, "spans": spans}


def _histogram_row(name: str, labels: dict, s: dict) -> list:
    count = int(s.get("count", 0))
    total = float(s.get("sum", 0.0))
    label_part = _label_str(labels)
    return [
        f"{name}{label_part}",
        count,
        round(total, 4),
        round(total / count, 6) if count else 0.0,
    ]


def render_stats(data: dict) -> str:
    """Terminal summary of a :func:`read_jsonl` result."""
    parts: list[str] = []
    counters = TextTable(title="counters / gauges", columns=["metric", "value"])
    hists = TextTable(title="histograms",
                      columns=["metric", "count", "sum", "mean"])
    n_counter_rows = n_hist_rows = 0
    for fam in data.get("metrics", ()):
        name = fam.get("name", "?")
        for s in fam.get("series", ()):
            labels = s.get("labels", {})
            if fam.get("type") == "histogram":
                hists.add_row(_histogram_row(name, labels, s))
                n_hist_rows += 1
            else:
                value = s.get("value", 0.0)
                counters.add_row([
                    f"{name}{_label_str(labels)}",
                    int(value) if float(value).is_integer() else round(value, 6),
                ])
                n_counter_rows += 1
    if n_counter_rows:
        parts.append(counters.render())
    if n_hist_rows:
        parts.append(hists.render())

    spans = data.get("spans", ())
    if spans:
        by_name: dict[str, dict] = {}
        for s in spans:
            agg = by_name.setdefault(s.get("name", "?"),
                                     {"count": 0, "total": 0.0, "max": 0.0})
            agg["count"] += 1
            agg["total"] += float(s.get("seconds", 0.0))
            agg["max"] = max(agg["max"], float(s.get("seconds", 0.0)))
        t = TextTable(title="spans",
                      columns=["span", "count", "total s", "mean s", "max s"])
        for name, agg in sorted(by_name.items(),
                                key=lambda kv: -kv[1]["total"]):
            t.add_row([
                name, agg["count"], round(agg["total"], 4),
                round(agg["total"] / agg["count"], 6), round(agg["max"], 6),
            ])
        parts.append(t.render())

        slowest = sorted(spans, key=lambda s: -float(s.get("seconds", 0.0)))[:10]
        t2 = TextTable(title="slowest spans",
                       columns=["span", "seconds", "attrs"])
        for s in slowest:
            indent = "  " * int(s.get("depth", 0))
            attrs = s.get("attrs", {})
            attr_str = " ".join(f"{k}={v}" for k, v in attrs.items())
            t2.add_row([
                f"{indent}{s.get('name', '?')}",
                round(float(s.get("seconds", 0.0)), 6),
                attr_str[:60],
            ])
        parts.append(t2.render())

    if not parts:
        return "(no metrics or spans recorded)"
    return "\n\n".join(parts)


# ── worker-process shuttle ────────────────────────────────────────────────


def drain() -> "dict | None":
    """Snapshot-and-reset the default registry and span recorder.

    Returns ``None`` when observability is disabled or nothing was
    recorded, so the common case ships no extra bytes over the result
    queue."""
    if not _metrics.REGISTRY.enabled:
        return None
    snap = _metrics.snapshot()
    span_dicts = _spans.RECORDER.to_dicts()
    if not snap and not span_dicts:
        return None
    _metrics.reset()
    _spans.RECORDER.clear()
    return {"metrics": snap, "spans": span_dicts}


def merge_delta(delta: "dict | None", **span_attrs) -> None:
    """Fold a :func:`drain` result (e.g. from a worker) into the default
    registry/recorder; ``span_attrs`` (e.g. ``worker=3``) are added to
    every merged span."""
    if not delta:
        return
    _metrics.merge_snapshot(delta.get("metrics", ()))
    _spans.RECORDER.merge_dicts(delta.get("spans", ()), **span_attrs)
