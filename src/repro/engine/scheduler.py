"""The work-unit scheduler and engine session.

:class:`EngineSession` is the orchestration entry point: it owns one
pool (created lazily, reused across batches, torn down on ``close``) and
one :class:`~repro.engine.events.EventLog`, and its :meth:`run_units`
implements the scheduling contract:

1. **dedupe within the batch** — units with equal content keys collapse
   to one execution;
2. **dedupe against caches** — the caller supplies ``cache_get`` /
   ``cache_put`` hooks (:func:`repro.pipeline.runtime.cache_get` checks
   the on-disk :class:`~repro.experiments.store.SweepStore`); hits never
   reach a worker, and fresh results are written back *as they land*, so a
   concurrent run on another process benefits immediately;
3. **dispatch misses** across the pool and return ``{key: payload}``.

Accounting: ``stats`` counts each distinct unit key once per session,
under the tier that first settled it (journal, cache or execution).
``units`` counts every reference, and a reference to a key the session
already counted, in the same batch or an earlier one (Fig 2 declaring
Table II's sweep again), counts as ``deduped``.  So ``units - deduped``
is the number of distinct units.

Determinism: results are keyed by content hash and units are pure, so
callers rebuild their outputs in *their own* iteration order — the
completion order of workers never leaks into a report.  A parallel run
is byte-identical to a serial one by construction.

Pool: one :class:`~repro.engine.remote.RemotePool` runs every parallel
batch — N local worker subprocesses for ``n_workers=N``, or TCP
workers for ``listen`` — and one worker means the in-process
:class:`~repro.engine.pool.SerialPool`.

Degradation: if workers cannot start (or no TCP worker connects within
``worker_timeout``), the session falls back to in-process serial
execution for whatever has not settled, and says so on the event stream
— a parallel flag can never make a run *fail*, only faster.

:func:`session` is the context manager every CLI run opens: it
installs the session as the ambient engine (:func:`current_session`),
through which :func:`repro.pipeline.resolve_units` settles every unit,
and guarantees teardown.  With no session installed, ``resolve_units``
settles each call through a serial session of its own.
"""

from __future__ import annotations

import contextlib
import signal as signal_mod
import threading
import time
from typing import Callable, Iterable, Iterator

from repro import obs
from repro.engine.events import EventLog
from repro.engine.journal import RunJournal, run_path
from repro.engine.pool import (
    PoolUnavailable,
    RunInterrupted,
    SerialPool,
    default_workers,
)
from repro.engine.units import WorkUnit

__all__ = ["EngineSession", "session", "current_session", "drain_on_signal"]

#: the ambient session :func:`session` installs (None = none installed)
_current: "EngineSession | None" = None


def current_session() -> "EngineSession | None":
    """The ambient engine session, or ``None`` when none is installed."""
    return _current


class EngineSession:
    """One parallel-execution session: a pool, an event log, counters."""

    def __init__(
        self,
        n_workers: "int | None" = None,
        *,
        events: "EventLog | None" = None,
        journal: "RunJournal | None" = None,
        run_id: "str | None" = None,
        listen: "str | None" = None,
        lease_timeout: "float | None" = 600.0,
        worker_timeout: "float | None" = None,
    ):
        self.n_workers = default_workers() if n_workers is None else max(1, int(n_workers))
        self.listen = listen
        self.lease_timeout = lease_timeout
        self.worker_timeout = worker_timeout
        self.events = events if events is not None else EventLog()
        self.journal = journal
        self.run_id = run_id if run_id is not None else (
            journal.run_id if journal is not None else None)
        if journal is not None and journal.on_error is None:
            journal.on_error = self._on_journal_error
        self.stats = {"units": 0, "deduped": 0, "journal_hits": 0,
                      "cache_hits": 0, "executed": 0}
        #: every key a batch of this session has asked for
        self._seen: "set[str]" = set()
        self._pool = None
        self._stop = threading.Event()
        self._stop_reason: "str | None" = None
        self.remote_address: "str | None" = None
        if self.listen is not None:
            # bind eagerly so `repro worker --connect` has somewhere to go
            # before the first batch is dispatched
            self._pool = self._make_remote_pool()
            self.remote_address = self._pool.address

    # ── graceful shutdown ─────────────────────────────────────────────────

    def request_stop(self, reason: str = "stop requested") -> None:
        """Ask the session to drain: stop dispatching, settle or abandon
        in-flight units, then raise :class:`RunInterrupted` from the
        active (or next) ``run_units`` call.  Signal-handler safe: only
        sets a flag."""
        self._stop_reason = reason
        self._stop.set()

    @property
    def stop_requested(self) -> bool:
        return self._stop.is_set()

    def _on_journal_error(self, message: str) -> None:
        self.events.emit("journal_write_failed", run_id=self.run_id,
                         error=message)

    def _journal_record(self, key: str, payload: dict) -> None:
        if self.journal is not None:
            self.journal.record(key, payload)

    def _resume_hint(self) -> "str | None":
        return f"--resume {self.run_id}" if self.run_id else None

    # ── pool management ───────────────────────────────────────────────────

    def _make_remote_pool(self):
        from repro.engine.remote import RemotePool

        return RemotePool(
            self.listen,
            local_workers=0 if self.listen is not None else self.n_workers,
            lease_timeout=self.lease_timeout,
            events=self.events,
            should_stop=self._stop.is_set,
            worker_timeout=self.worker_timeout,
        )

    def _serial(self) -> bool:
        return self.listen is None and self.n_workers <= 1

    def _make_pool(self):
        if self._serial():
            return SerialPool(events=self.events, should_stop=self._stop.is_set)
        return self._make_remote_pool()

    def _degrade(self, reason: str) -> SerialPool:
        self.events.emit("serial_fallback", reason=reason)
        self._pool.close()
        self._pool = SerialPool(events=self.events, should_stop=self._stop.is_set)
        return self._pool

    @property
    def workers(self) -> int:
        """Width of the pool that runs (or will run) this session's misses."""
        if self._pool is not None:
            return self._pool.n_workers
        return 1 if self._serial() else self.n_workers

    # ── scheduling ────────────────────────────────────────────────────────

    def run_units(
        self,
        units: Iterable[WorkUnit],
        *,
        cache_get: "Callable[[WorkUnit], dict | None] | None" = None,
        cache_put: "Callable[[WorkUnit, dict], None] | None" = None,
    ) -> dict[str, dict]:
        """Dedupe, consult the journal and caches, execute misses.

        Returns ``{key: payload}``.  Tier order for each unique unit:
        the run journal (a resumed run re-executes nothing that settled
        before the crash), then the caller's ``cache_get`` (the
        :class:`~repro.experiments.store.SweepStore`), then the pool.
        Every settled unit is journaled *before* the cache write — the
        write-ahead ordering crash safety rests on.
        """
        units = list(units)
        unique: dict[str, WorkUnit] = {}
        for u in units:
            unique.setdefault(u.key, u)
        # a key is counted once per session, by the tier that first
        # settles it; every other reference to it is a dedup
        first = unique.keys() - self._seen
        self._seen.update(first)
        self.stats["units"] += len(units)
        self.stats["deduped"] += len(units) - len(first)

        def count(tier: str, key: str) -> None:
            if key in first:
                self.stats[tier] += 1

        def cache_write(unit: WorkUnit, payload: dict) -> None:
            if cache_put is None:
                return
            try:
                cache_put(unit, payload)
            except Exception as exc:  # a cache write must not kill the run
                self.events.emit("cache_put_failed", key=unit.key,
                                 error=f"{type(exc).__name__}: {exc}")

        results: dict[str, dict] = {}
        misses: list[WorkUnit] = []
        for key, unit in unique.items():
            payload = self.journal.get(key) if self.journal is not None else None
            if payload is not None:
                results[key] = payload
                count("journal_hits", key)
                self.events.emit("journal_hit", key=key, label=unit.describe())
                # backfill the cache tiers so post-resume serial phases and
                # concurrent runs benefit even if the first attempt's cache
                # writes were lost
                cache_write(unit, payload)
                continue
            payload = cache_get(unit) if cache_get is not None else None
            if payload is not None:
                results[key] = payload
                count("cache_hits", key)
                self.events.emit("cache_hit", key=key, label=unit.describe())
                # a cache hit settles the unit: journal it so the run can be
                # resumed even if this cache entry later corrupts or clears
                self._journal_record(key, payload)
            else:
                misses.append(unit)
        if not misses:
            return results
        if self._stop.is_set():
            exc = RunInterrupted(self._stop_reason or "stop requested",
                                 settled=len(results), pending=len(misses))
            self._emit_interrupted(exc)
            raise exc

        total = len(misses)
        settled: dict[str, dict] = {}
        started = time.monotonic()
        if self._pool is None:
            self._pool = self._make_pool()
        self.events.emit("batch_start", units=len(units), unique=len(unique),
                         cache_hits=len(results), to_execute=total,
                         workers=self.workers)

        def on_result(key: str, payload: dict) -> None:
            settled[key] = payload
            count("executed", key)
            done = len(settled)
            self._journal_record(key, payload)  # write-ahead: journal first
            cache_write(unique[key], payload)
            elapsed = time.monotonic() - started
            eta = elapsed / done * (total - done)
            self.events.emit("progress", done=done, total=total,
                             elapsed_s=round(elapsed, 2), eta_s=round(eta, 2))

        with obs.span("engine.batch", to_execute=total, workers=self.workers):
            try:
                executed = self._pool.run(misses, on_result=on_result)
            except PoolUnavailable as exc:
                # whatever settled was delivered through on_result (and
                # journaled); run the rest serially
                rest = [u for u in misses if u.key not in settled]
                executed = dict(settled)
                executed.update(self._degrade(str(exc)).run(
                    rest, on_result=on_result))
            except RunInterrupted as exc:
                if self._stop_reason:  # the pool only sees a flag; name it
                    exc.reason = self._stop_reason
                self._emit_interrupted(exc)
                raise
        results.update(executed)
        self.events.emit("batch_done", executed=total,
                         seconds=round(time.monotonic() - started, 3))
        return results

    def _emit_interrupted(self, exc: RunInterrupted) -> None:
        """Record the interruption and how to pick the run back up."""
        self.events.emit(
            "run_interrupted", reason=exc.reason, settled=exc.settled,
            abandoned=len(exc.abandoned), pending=exc.pending,
            journaled=len(self.journal) if self.journal is not None else 0,
            resume=self._resume_hint(),
        )

    def summary(self) -> str:
        """One line for the CLI: distinct units, hits, executions,
        recoveries."""
        s = self.stats
        # no pool means no batch reached one: nothing started, whatever
        # width was requested
        where = (f" on {self.workers} worker(s)" if self._pool is not None
                 else ", no worker started")
        parts = [
            f"{s['units'] - s['deduped']} unit(s): {s['cache_hits']} cache hit(s), "
            f"{s['executed']} executed{where}"
        ]
        if s["journal_hits"]:
            parts.append(f"{s['journal_hits']} replayed from the run journal")
        if s["deduped"]:
            parts.append(f"{s['deduped']} deduplicated")
        retries = self.events.count("unit_retry")
        crashes = self.events.count("worker_crashed")
        if crashes:
            parts.append(f"{crashes} worker crash(es), {retries} unit retry(ies)")
        return "; ".join(parts)

    # ── lifecycle ─────────────────────────────────────────────────────────

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        if self.journal is not None:
            self.journal.close()
        self.events.close()

    def __enter__(self) -> "EngineSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@contextlib.contextmanager
def drain_on_signal(sess: EngineSession) -> Iterator[EngineSession]:
    """Turn SIGINT/SIGTERM into a graceful drain of ``sess``.

    The first signal only flags the session (:meth:`EngineSession
    .request_stop`): the pool stops dispatching, in-flight units get a
    grace window to settle (and be journaled), and ``run_units`` raises
    :class:`RunInterrupted` with a resume hint on the event stream.  A
    second signal falls back to ``KeyboardInterrupt`` for people who
    really mean it.  Outside the main thread (where signal handlers
    cannot be installed) this is a no-op passthrough.
    """
    if threading.current_thread() is not threading.main_thread():
        yield sess
        return

    def _handler(signum, frame):
        name = signal_mod.Signals(signum).name
        if sess.stop_requested:
            raise KeyboardInterrupt(name)
        sess.request_stop(name)

    previous = {}
    try:
        for sig in (signal_mod.SIGINT, signal_mod.SIGTERM):
            previous[sig] = signal_mod.signal(sig, _handler)
    except (OSError, ValueError):  # pragma: no cover - exotic platforms
        pass
    try:
        yield sess
    finally:
        for sig, old in previous.items():
            try:
                signal_mod.signal(sig, old)
            except (OSError, ValueError):  # pragma: no cover
                pass


@contextlib.contextmanager
def session(
    n_workers: "int | None" = None,
    *,
    event_log: "str | None" = None,
    run_id: "str | None" = None,
    drain_signals: bool = False,
    **pool_options,
) -> Iterator[EngineSession]:
    """An :class:`EngineSession`, installed as the ambient engine.

    While the context is active, :func:`current_session` returns it and
    :func:`repro.pipeline.resolve_units` routes every cache miss through
    its worker pool, so *any* experiment driver parallelizes without code
    changes.  ``event_log`` additionally appends every engine event to a
    JSONL file.

    ``run_id`` makes the session **crash-safe and resumable**: a
    :class:`~repro.engine.journal.RunJournal` under the run's directory
    (``.repro-cache/runs/<run-id>/`` by default, see
    :func:`~repro.engine.journal.run_path`) records every settled unit,
    an existing journal is replayed as the first cache tier, and the
    event log defaults into the same directory.  ``drain_signals`` adds
    the SIGINT/SIGTERM graceful drain (:func:`drain_on_signal`).  With
    observability enabled, teardown folds a ``metrics_snapshot`` event
    into the stream.
    """
    journal = None
    if run_id is not None:
        rd = run_path(run_id, create=True)
        journal = RunJournal(rd / "journal.jsonl", run_id=run_id)
        if event_log is None:
            event_log = str(rd / "events.jsonl")
    sess = EngineSession(n_workers, events=EventLog(jsonl_path=event_log),
                         journal=journal, run_id=run_id, **pool_options)
    if journal is not None:
        sess.events.emit(
            "journal_opened", run_id=run_id, path=str(journal.path),
            entries=len(journal), dropped=journal.dropped,
            tail_truncated=journal.tail_truncated,
        )
    global _current
    _current = sess
    try:
        with (drain_on_signal(sess) if drain_signals
              else contextlib.nullcontext()):
            yield sess
    finally:
        _current = None
        if obs.enabled():
            # fold the observability state into the event stream so JSONL
            # event logs (and the bench harness) carry the numbers too
            sess.events.emit("metrics_snapshot", metrics=obs.snapshot(),
                             spans=obs.span_summary())
        sess.close()

