"""Process-wide metrics: counters, gauges and histograms with labels.

Zero-dependency, Prometheus-shaped instrumentation primitives.  One
:class:`MetricsRegistry` (the module-level :data:`REGISTRY`) holds every
metric *family*; a family plus one concrete label assignment is a
*series* holding the actual value.  Design constraints, in order:

* **near-zero cost when disabled** — every mutator checks the owning
  registry's ``enabled`` flag first and returns immediately, so an
  instrumented hot path pays one attribute load and one branch.  The hot
  layers additionally batch their accounting (the simulator records one
  set of counters per *run*, not per op), so even the enabled cost is
  amortised to nothing;
* **bounded cardinality** — a family accepts at most
  :data:`MAX_SERIES_PER_FAMILY` distinct label assignments; further ones
  collapse into a single ``{"<label>": "__overflow__"}`` series (and log
  one warning) instead of growing without bound;
* **mergeable snapshots** — :meth:`MetricsRegistry.snapshot` produces
  plain JSON-able dicts and :meth:`MetricsRegistry.merge_snapshot` folds
  such a snapshot back in (counters and histogram buckets add, gauges
  take the incoming value).  This is how worker processes ship their
  simulator metrics back to the engine parent.

Registration is idempotent: asking for an existing family with the same
type and label names returns it; a conflicting re-registration raises.
"""

from __future__ import annotations

import bisect
import os
import threading
from typing import Iterable, Mapping

from repro.util.logging import get_logger

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
    "enabled",
    "set_enabled",
    "snapshot",
    "merge_snapshot",
    "reset",
    "DEFAULT_BUCKETS",
    "MAX_SERIES_PER_FAMILY",
]

log = get_logger("obs")

#: per-family cap on distinct label assignments (see module docstring)
MAX_SERIES_PER_FAMILY = 512

#: default histogram bucket upper bounds (seconds-flavoured; pass explicit
#: buckets for other units, e.g. cycles)
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

_OVERFLOW = "__overflow__"


class MetricError(ValueError):
    """Misuse of the metrics API (bad labels, conflicting registration)."""


class _Family:
    """Common machinery: name, declared labels, series keyed by label values."""

    metric_type = "untyped"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str,
                 label_names: tuple):
        self._registry = registry
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._series: dict[tuple, object] = {}
        self._overflowed = False

    # ── label handling ────────────────────────────────────────────────────

    def _series_key(self, labels: Mapping[str, str]) -> tuple:
        if set(labels) != set(self.label_names):
            raise MetricError(
                f"metric {self.name!r} takes labels {list(self.label_names)}, "
                f"got {sorted(labels)}"
            )
        key = tuple(str(labels[n]) for n in self.label_names)
        if key not in self._series and len(self._series) >= MAX_SERIES_PER_FAMILY:
            if not self._overflowed:
                self._overflowed = True
                log.warning(
                    "metric %s exceeded %d label sets; folding further ones "
                    "into %r", self.name, MAX_SERIES_PER_FAMILY, _OVERFLOW,
                )
            key = tuple(_OVERFLOW for _ in self.label_names)
        return key

    def _labels_of(self, key: tuple) -> dict:
        return dict(zip(self.label_names, key))

    # ── snapshot plumbing (per-type hooks below) ──────────────────────────

    def _new_value(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def _value_to_dict(self, value) -> dict:  # pragma: no cover - overridden
        raise NotImplementedError

    def _merge_value(self, key: tuple, data: dict) -> None:  # pragma: no cover
        raise NotImplementedError

    def to_dict(self) -> dict:
        """JSON-able description of the family and all its series."""
        return {
            "name": self.name,
            "type": self.metric_type,
            "help": self.help,
            "labels": list(self.label_names),
            "series": [
                {"labels": self._labels_of(k), **self._value_to_dict(v)}
                for k, v in sorted(self._series.items())
            ],
        }

    def clear(self) -> None:
        self._series.clear()
        self._overflowed = False


class Counter(_Family):
    """A monotonically increasing value per label set."""

    metric_type = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (>= 0) to the series selected by ``labels``."""
        if not self._registry.enabled:
            return
        if amount < 0:
            raise MetricError(f"counter {self.name!r} cannot decrease by {amount}")
        key = self._series_key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        """Current value of one series (0.0 when never incremented)."""
        return float(self._series.get(self._series_key(labels), 0.0))

    def _value_to_dict(self, value) -> dict:
        return {"value": value}

    def _merge_value(self, key: tuple, data: dict) -> None:
        self._series[key] = self._series.get(key, 0.0) + float(data["value"])


class Gauge(_Family):
    """A value that can go up and down (queue depth, cache size)."""

    metric_type = "gauge"

    def set(self, value: float, **labels: str) -> None:
        if not self._registry.enabled:
            return
        self._series[self._series_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if not self._registry.enabled:
            return
        key = self._series_key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        return float(self._series.get(self._series_key(labels), 0.0))

    def _value_to_dict(self, value) -> dict:
        return {"value": value}

    def _merge_value(self, key: tuple, data: dict) -> None:
        # merging snapshots: the incoming observation is the newer one
        self._series[key] = float(data["value"])


class _HistValue:
    """One histogram series: per-bucket counts plus sum and count."""

    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, n_buckets: int):
        self.bucket_counts = [0] * (n_buckets + 1)  # +1 for +Inf
        self.sum = 0.0
        self.count = 0


class Histogram(_Family):
    """Cumulative-bucket histogram (Prometheus ``le`` semantics).

    A value lands in the first bucket whose upper bound is >= the value;
    bucket counts reported by :meth:`to_dict` are cumulative, like the
    Prometheus exposition format.
    """

    metric_type = "histogram"

    def __init__(self, registry, name, help, label_names,
                 buckets: Iterable[float] = DEFAULT_BUCKETS):
        super().__init__(registry, name, help, label_names)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise MetricError(f"histogram {self.name!r} needs at least one bucket")
        if len(set(bounds)) != len(bounds):
            raise MetricError(f"histogram {self.name!r} has duplicate buckets")
        self.buckets = bounds

    def observe(self, value: float, **labels: str) -> None:
        """Record one observation."""
        if not self._registry.enabled:
            return
        key = self._series_key(labels)
        hv = self._series.get(key)
        if hv is None:
            hv = self._series[key] = _HistValue(len(self.buckets))
        hv.bucket_counts[bisect.bisect_left(self.buckets, value)] += 1
        hv.sum += value
        hv.count += 1

    def _value_to_dict(self, hv: _HistValue) -> dict:
        cumulative = []
        running = 0
        for c in hv.bucket_counts:
            running += c
            cumulative.append(running)
        return {
            "buckets": {
                **{repr(b): cumulative[i] for i, b in enumerate(self.buckets)},
                "+Inf": cumulative[-1],
            },
            "sum": hv.sum,
            "count": hv.count,
        }

    def _merge_value(self, key: tuple, data: dict) -> None:
        hv = self._series.get(key)
        if hv is None:
            hv = self._series[key] = _HistValue(len(self.buckets))
        # incoming buckets are cumulative; de-cumulate against our bounds
        cum = [int(data["buckets"].get(repr(b), 0)) for b in self.buckets]
        cum.append(int(data["buckets"].get("+Inf", 0)))
        prev = 0
        for i, c in enumerate(cum):
            hv.bucket_counts[i] += max(0, c - prev)
            prev = c
        hv.sum += float(data["sum"])
        hv.count += int(data["count"])


_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


def _env_enabled() -> bool:
    return os.environ.get("REPRO_OBS", "").lower() in ("1", "on", "yes", "true")


class MetricsRegistry:
    """A set of metric families behind one enable switch."""

    def __init__(self, enabled: "bool | None" = None):
        self.enabled = _env_enabled() if enabled is None else bool(enabled)
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    # ── registration ──────────────────────────────────────────────────────

    def _register(self, cls, name: str, help: str, labels, **kwargs):
        labels = tuple(labels)
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.label_names != labels:
                    raise MetricError(
                        f"metric {name!r} already registered as "
                        f"{existing.metric_type} with labels "
                        f"{list(existing.label_names)}"
                    )
                return existing
            fam = cls(self, name, help, labels, **kwargs)
            self._families[name] = fam
            return fam

    def counter(self, name: str, help: str = "", labels: tuple = ()) -> Counter:
        """Get or create a counter family."""
        return self._register(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: tuple = ()) -> Gauge:
        """Get or create a gauge family."""
        return self._register(Gauge, name, help, labels)

    def histogram(
        self, name: str, help: str = "", labels: tuple = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get or create a histogram family."""
        return self._register(Histogram, name, help, labels, buckets=buckets)

    def get(self, name: str) -> "_Family | None":
        """The registered family called ``name``, or None."""
        return self._families.get(name)

    # ── state management ──────────────────────────────────────────────────

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop every recorded series (families stay registered)."""
        for fam in self._families.values():
            fam.clear()

    # ── snapshots ─────────────────────────────────────────────────────────

    def snapshot(self) -> list[dict]:
        """JSON-able state of every family that has recorded series."""
        return [
            fam.to_dict()
            for _, fam in sorted(self._families.items())
            if fam._series
        ]

    def merge_snapshot(self, snap: "Iterable[dict]") -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker process) into this
        registry: counters and histograms add, gauges take the incoming
        value.  Unknown families are created on the fly; malformed entries
        are skipped (a lost metric must never lose a result)."""
        for fam_dict in snap:
            try:
                cls = _TYPES[fam_dict["type"]]
                kwargs = {}
                if cls is Histogram:
                    bounds = [
                        float(b)
                        for s in fam_dict.get("series", [])
                        for b in s.get("buckets", {})
                        if b != "+Inf"
                    ]
                    if bounds:
                        kwargs["buckets"] = sorted(set(bounds))
                fam = self._register(
                    cls, fam_dict["name"], fam_dict.get("help", ""),
                    tuple(fam_dict.get("labels", ())), **kwargs,
                )
                for s in fam_dict.get("series", []):
                    key = fam._series_key(dict(s.get("labels", {})))
                    fam._merge_value(key, s)
            except (KeyError, TypeError, ValueError, MetricError) as exc:
                log.warning("skipping unmergeable metric %r: %s",
                            fam_dict if isinstance(fam_dict, dict) else "?", exc)


#: the process-wide default registry (enabled via REPRO_OBS=1 or
#: :func:`set_enabled`; the CLI's ``--metrics-out`` flag enables it too)
REGISTRY = MetricsRegistry()


def counter(name: str, help: str = "", labels: tuple = ()) -> Counter:
    """Get or create a counter in the default registry."""
    return REGISTRY.counter(name, help, labels)


def gauge(name: str, help: str = "", labels: tuple = ()) -> Gauge:
    """Get or create a gauge in the default registry."""
    return REGISTRY.gauge(name, help, labels)


def histogram(name: str, help: str = "", labels: tuple = (),
              buckets: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
    """Get or create a histogram in the default registry."""
    return REGISTRY.histogram(name, help, labels, buckets)


def enabled() -> bool:
    """Whether the default registry is recording."""
    return REGISTRY.enabled


def set_enabled(on: bool) -> None:
    """Turn the default registry (and span recording) on or off."""
    REGISTRY.enabled = bool(on)


def snapshot() -> list[dict]:
    """Snapshot of the default registry."""
    return REGISTRY.snapshot()


def merge_snapshot(snap: "Iterable[dict]") -> None:
    """Merge a snapshot into the default registry."""
    REGISTRY.merge_snapshot(snap)


def reset() -> None:
    """Reset the default registry's series."""
    REGISTRY.reset()
