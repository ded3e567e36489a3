"""Engine progress/event stream.

Every observable thing the engine does — workers starting, units
dispatching, cache hits, crashes, retries, progress/ETA — is emitted as
an :class:`EngineEvent` through one :class:`EventLog`.  Events serve
three consumers at once:

* **logging** — each event is mirrored to the ``repro.engine`` logger
  (:mod:`repro.util.logging`); lifecycle noise at DEBUG, anomalies
  (crashes, timeouts, fallbacks) at WARNING, so ``-v`` shows the full
  stream while a default run only surfaces trouble;
* **tests** — fault-tolerance tests assert on recorded kinds
  (``count("worker_crashed")``), which is far more robust than scraping
  log text;
* **artefacts** — pass ``jsonl_path`` to also append one JSON line per
  event; CI uploads this file so a failed parallel run can be post-mortemed
  without rerunning it.  The file is created with the log, so a run that
  emits no event still leaves an (empty) log behind.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs
from repro.util.logging import get_logger

__all__ = ["EngineEvent", "EventLog"]

log = get_logger("engine")

_EVENTS = obs.counter("engine_events_total", "engine events emitted",
                      labels=("kind",))

#: event kinds that indicate something went wrong (logged at WARNING)
_WARN_KINDS = frozenset({
    "worker_crashed", "unit_timeout", "unit_retry", "serial_fallback",
    "cache_put_failed", "journal_write_failed", "drain_started",
    "run_interrupted", "lease_expired", "worker_disconnected",
    "duplicate_settle",
})


@dataclass(frozen=True)
class EngineEvent:
    """One engine occurrence: a kind plus free-form JSON-able details."""

    kind: str
    data: dict = field(default_factory=dict)
    timestamp: float = field(default_factory=time.time)


class EventLog:
    """Collects :class:`EngineEvent`\\ s, mirrors them to the logger, and
    optionally appends them to a JSONL file."""

    def __init__(self, jsonl_path: "str | Path | None" = None):
        self.events: list[EngineEvent] = []
        self._jsonl_path = Path(jsonl_path) if jsonl_path is not None else None
        self._fh = None
        if self._jsonl_path is not None:
            try:
                self._jsonl_path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = self._jsonl_path.open("a")
            except OSError as exc:
                self._disable(exc)

    def emit(self, kind: str, **data) -> EngineEvent:
        """Record one event; returns it (handy for tests)."""
        event = EngineEvent(kind, data)
        self.events.append(event)
        _EVENTS.inc(kind=kind)
        level = log.warning if kind in _WARN_KINDS else log.debug
        level("%s %s", kind, " ".join(f"{k}={v}" for k, v in data.items()))
        if self._fh is not None:
            self._write_jsonl(event)
        return event

    def _write_jsonl(self, event: EngineEvent) -> None:
        try:
            self._fh.write(json.dumps(
                {"t": event.timestamp, "kind": event.kind, **event.data},
                sort_keys=True, default=str,
            ) + "\n")
            self._fh.flush()
        except OSError as exc:
            self._disable(exc)

    def _disable(self, exc: OSError) -> None:
        """Stop writing the file: an unwritable log must not kill the run."""
        log.warning("cannot write event log %s: %s", self._jsonl_path, exc)
        self.close()

    def count(self, kind: str) -> int:
        """How many events of ``kind`` were recorded."""
        return sum(1 for e in self.events if e.kind == kind)

    def kinds(self) -> list[str]:
        """Recorded event kinds, in order."""
        return [e.kind for e in self.events]

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None
