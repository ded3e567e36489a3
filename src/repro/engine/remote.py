"""The worker pool: one lease protocol over two transports.

A :class:`~repro.engine.units.WorkUnit` is content-hashed, pure, and
backend-tagged, so it does not matter *where* it executes — only that
its payload settles through the coordinator's write-ahead journal.  This
module therefore runs every parallel unit the same way, whichever
process or machine executes it.

Roles
-----
* :class:`RemotePool` — the **coordinator**, and the engine's only
  worker pool.  Same interface as
  :class:`~repro.engine.pool.SerialPool` (``run(units, on_result=...)``),
  so ``--parallel``, ``--listen``, ``runall`` and pipeline
  ``resolve_units`` are backend-agnostic.  It hands **leases** to its
  workers, re-issues leases that expire or whose worker disconnects,
  and settles each unit **at most once** (first result wins; the
  journal write in ``on_result`` happens *before* the worker's
  acknowledgement frame, so a settled unit is durable before anyone is
  told about it).  Workers reach it over two transports:

  - **local** (``local_workers=N``, what ``--parallel N`` uses): N
    worker subprocesses, each on its own end of a
    :func:`socket.socketpair`.  The pool owns them: it SIGKILLs the
    holder of an expired lease and respawns any worker that dies.  A
    worker reads EOF when the coordinator dies and exits with it.
  - **TCP** (``listen=HOST:PORT``, what ``--listen`` uses): any number
    of ``repro worker --connect HOST:PORT`` processes on any machine.
* :func:`run_worker` — the **worker** loop behind both: lease a unit,
  execute it via the ordinary executor registry
  (:func:`repro.engine.units.execute`), stream the result plus this
  worker's :func:`repro.obs.drain` delta back, repeat.  Workers are
  stateless and disposable: a SIGKILLed worker loses only its lease,
  which the coordinator re-issues elsewhere.

Protocol
--------
Length-prefixed JSON frames: a 4-byte big-endian length, then a UTF-8
JSON object.  A frame that ends mid-read (torn length or torn body) is a
*transport* failure — the peer treats the connection as dead and the
lease machinery recovers; it is never interpreted as data.  Unit specs
are arbitrary picklable tuples, so they travel base64-pickled inside
the JSON frame.  **The protocol therefore assumes trusted workers**: a
local worker is the coordinator's own child on a private socketpair (no
port, no token), and a TCP worker must sit on a trusted network.

Worker → coordinator requests (strict request/response):

==========  ============================================  =================
request     fields                                        replies
==========  ============================================  =================
``hello``   ``worker`` (name), ``pid``                    ``welcome``
``lease``   —                                             ``unit`` | ``idle`` | ``bye``
``result``  ``lease``, ``key``, ``ok``, ``payload`` /     ``ack`` (``settled``
            ``error``, ``obs``                            true/false)
==========  ============================================  =================

A ``lease`` request with nothing to hand out waits up to a second for
work before it is answered ``idle``, so a new batch, a matured retry or
a shutdown reaches an idle worker at once.

Durability invariants (the fault-injection tests prove them with
scripted faulty peers and real SIGKILLs):

* every settled unit is journaled (via ``on_result``) **before** its
  ``ack`` frame is sent;
* settles are **at-most-once per key**: a late result for a lease that
  already expired and was re-issued — or a duplicated result frame — is
  acknowledged with ``settled: false`` and dropped
  (``duplicate_settle`` event);
* a lease past its deadline, or held by a disconnected or dead worker,
  is re-issued with capped exponential backoff and a bounded attempt
  budget (``lease_expired`` events → :class:`UnitFailure` when
  exhausted, never a hang);
* a SIGKILLed **coordinator** resumes byte-identically from its journal
  exactly like any other interrupted run: TCP workers keep reconnecting
  (``retry_for`` window), local workers exit, and the resumed run
  re-leases only what never settled.
"""

from __future__ import annotations

import base64
import importlib
import itertools
import json
import os
import pickle
import queue as queue_mod
import socket
import struct
import subprocess
import sys
import threading
import time
import traceback
from collections import deque
from typing import Callable, Iterable

from repro import obs
from repro.engine.events import EventLog
from repro.engine.pool import (
    PoolUnavailable,
    RunInterrupted,
    UnitFailure,
    _POLL_S,
    _QUEUE_DEPTH,
    _UNIT_SECONDS,
)
from repro.engine.units import WorkUnit, execute, executor_modules
from repro.util.logging import get_logger

__all__ = [
    "ProtocolError",
    "RemotePool",
    "run_worker",
    "parse_hostport",
    "send_frame",
    "recv_frame",
    "encode_spec",
    "decode_spec",
]

log = get_logger("engine")

#: frames larger than this are a protocol violation, not data
_MAX_FRAME = 64 * 1024 * 1024

#: how long a ``lease`` request with nothing to hand out waits for work
_LEASE_WAIT_S = 1.0

#: a TCP worker's pause before redialling, and after an ``idle`` reply
#: that names no ``retry_s``
_IDLE_POLL_S = 0.2

#: a local worker's entry point: take the coordinator's ``sys.path``, then
#: run the lease loop on the inherited end of the socketpair
_LOCAL_ENTRY = ("import json, sys; boot = json.loads(sys.argv[1]); "
                "sys.path[:] = boot['path']; "
                "from repro.engine.remote import _local_worker; "
                "sys.exit(_local_worker(boot))")

_WORKERS_CONNECTED = obs.gauge("engine_remote_workers",
                               "remote workers currently connected")


class ProtocolError(ConnectionError):
    """The peer sent bytes that are not a valid frame."""


# ── framing ────────────────────────────────────────────────────────────────


def parse_hostport(address: str) -> "tuple[str, int]":
    """``"HOST:PORT"`` → ``(host, port)`` (host defaults to all interfaces
    when omitted: ``":7077"``)."""
    host, sep, port = address.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"invalid address {address!r}: expected HOST:PORT")
    return (host or "0.0.0.0", int(port))


def _recv_exact(sock: socket.socket, n: int) -> "bytes | None":
    """Exactly ``n`` bytes, ``None`` on a clean EOF *before* any byte, and
    :class:`ProtocolError` on EOF mid-read (a torn frame)."""
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            if not buf:
                return None
            raise ProtocolError(f"torn frame: EOF after {len(buf)}/{n} bytes")
        buf.extend(chunk)
    return bytes(buf)


def send_frame(sock: socket.socket, message: dict) -> None:
    """One length-prefixed JSON frame (a single ``sendall``)."""
    body = json.dumps(message, separators=(",", ":"), default=str).encode()
    if len(body) > _MAX_FRAME:
        raise ProtocolError(f"frame too large ({len(body)} bytes)")
    sock.sendall(struct.pack(">I", len(body)) + body)


def recv_frame(sock: socket.socket) -> "dict | None":
    """One frame, ``None`` on clean EOF between frames, raises
    :class:`ProtocolError` on a torn or malformed frame."""
    header = _recv_exact(sock, 4)
    if header is None:
        return None
    (length,) = struct.unpack(">I", header)
    if length > _MAX_FRAME:
        raise ProtocolError(f"frame length {length} exceeds the {_MAX_FRAME} cap")
    body = _recv_exact(sock, length)
    if body is None:
        raise ProtocolError("torn frame: EOF before the body")
    try:
        message = json.loads(body)
    except ValueError as exc:
        raise ProtocolError(f"frame is not JSON: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError("frame is not a JSON object")
    return message


def encode_spec(spec: tuple) -> str:
    """A unit spec as transportable text (specs are picklable by the
    :class:`~repro.engine.units.WorkUnit` contract)."""
    return base64.b64encode(pickle.dumps(spec)).decode("ascii")


def decode_spec(blob: str) -> tuple:
    return pickle.loads(base64.b64decode(blob.encode("ascii")))


# ── coordinator ────────────────────────────────────────────────────────────


class _Lease:
    """One outstanding unit → worker assignment."""

    __slots__ = ("lease_id", "key", "worker", "conn_id", "deadline", "issued")

    def __init__(self, lease_id: int, key: str, worker: str, conn_id: int,
                 deadline: float, issued: float):
        self.lease_id = lease_id
        self.key = key
        self.worker = worker
        self.conn_id = conn_id
        self.deadline = deadline
        self.issued = issued


class _LocalWorker:
    """The coordinator's handle on one local worker subprocess."""

    __slots__ = ("name", "proc", "sock", "greeted")

    def __init__(self, name: str, proc: subprocess.Popen, sock: socket.socket):
        self.name = name
        self.proc = proc
        self.sock = sock  # the coordinator's end of the socketpair
        self.greeted = False  # said hello, so it started and may be respawned


def _stop(proc: subprocess.Popen, grace: float = 0.0) -> None:
    """Give ``proc`` ``grace`` seconds to exit, then SIGKILL it; reap it."""
    try:
        proc.wait(grace)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


class _Batch:
    """Shared state for one ``run()`` call (guarded by the pool lock)."""

    def __init__(self, by_key: "dict[str, WorkUnit]"):
        self.by_key = by_key
        self.ready: deque[str] = deque(by_key)
        self.delayed: "list[tuple[float, str]]" = []  # (eligible_at, key)
        self.attempts: dict[str, int] = {k: 0 for k in by_key}
        self.leases: dict[int, _Lease] = {}
        self.settled: set[str] = set()
        self.inbox: "queue_mod.Queue" = queue_mod.Queue()
        self.draining = False


class RemotePool:
    """Coordinator: leases units to local worker subprocesses or to TCP
    workers.

    Pool-interface compatible with :class:`~repro.engine.pool.SerialPool`
    (``run``/``close``/``events``/``should_stop``), so
    :class:`~repro.engine.scheduler.EngineSession` can swap it in
    transparently.  ``local_workers=N`` starts N worker subprocesses at
    the first batch and keeps them across batches.  ``listen`` binds a
    TCP listener at construction time, so remote workers may connect
    before the first batch; between batches they wait for work.

    ``lease_timeout`` bounds every unit: an expired lease is re-issued,
    and a local worker still holding it is SIGKILLed and respawned
    (``unit_timeout`` event).  ``worker_timeout`` bounds the wait for the
    *first* TCP worker: when none has ever connected within that many
    seconds of a batch starting, :class:`PoolUnavailable` is raised —
    which the session turns into the usual graceful serial degradation.
    A local worker that cannot be started, or that exits before its
    ``hello``, is not respawned; once no local worker is left the pool
    raises :class:`PoolUnavailable` too, so a broken launch never loops.
    """

    def __init__(
        self,
        listen: "str | None" = None,
        *,
        local_workers: int = 0,
        lease_timeout: "float | None" = 600.0,
        max_retries: int = 2,
        backoff: float = 0.25,
        max_backoff: float = 5.0,
        events: "EventLog | None" = None,
        should_stop: "Callable[[], bool] | None" = None,
        drain_grace: float = 10.0,
        worker_timeout: "float | None" = None,
    ):
        self.local_workers = max(0, int(local_workers))
        if listen is None and not self.local_workers:
            raise ValueError("a pool needs local_workers or a listen address")
        self.lease_timeout = lease_timeout
        self.max_retries = max(0, int(max_retries))
        self.backoff = backoff
        self.max_backoff = max(float(max_backoff), float(backoff))
        self.should_stop = should_stop
        self.drain_grace = float(drain_grace)
        self.worker_timeout = worker_timeout
        self.events = events if events is not None else EventLog()
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)  # a lease may be granted
        self._events_lock = threading.Lock()
        self._batch: "_Batch | None" = None
        self._closed = False
        self._ever_connected = threading.Event()
        self._workers: dict[int, str] = {}  # conn_id -> worker name
        self._conns: dict[int, socket.socket] = {}
        self._local: dict[int, _LocalWorker] = {}  # conn_id -> live local worker
        self._local_ids = itertools.count()
        self._threads: list[threading.Thread] = []  # one per connection
        self._peak = 0  # most workers connected at once
        self._lease_ids = itertools.count(1)
        self._conn_ids = itertools.count(1)
        self._label = "local" if listen is None else "remote"
        self._listener: "socket.socket | None" = None
        self._accept_thread: "threading.Thread | None" = None
        #: the bound TCP address as ``"HOST:PORT"`` (port 0 resolves here)
        self.address: "str | None" = None
        if listen is not None:
            self._listen(listen)

    def _listen(self, listen: str) -> None:
        host, port = parse_hostport(listen)
        try:
            self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind((host, port))
            self._listener.listen(64)
        except OSError as exc:
            raise PoolUnavailable(
                f"cannot bind coordinator on {listen}: {exc}") from exc
        bound_host, bound_port = self._listener.getsockname()[:2]
        self.address = f"{bound_host}:{bound_port}"
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-remote-accept", daemon=True)
        self._accept_thread.start()
        self._emit("coordinator_listening", host=bound_host, port=bound_port)

    @property
    def n_workers(self) -> int:
        """Pool width: the local workers, or the most workers ever
        connected at once if that is more (at least 1)."""
        return max(1, self.local_workers, self._peak)

    def _emit(self, kind: str, **data) -> None:
        # connection threads and the run loop share one EventLog; serialise
        with self._events_lock:
            self.events.emit(kind, **data)

    # ── connection handling (one thread per worker) ───────────────────────

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:  # listener closed: shutdown
                return
            conn_id = next(self._conn_ids)
            self._serve(conn, conn_id)

    def _serve(self, conn: socket.socket, conn_id: int,
               local: "_LocalWorker | None" = None) -> None:
        """Start the thread that answers one worker connection.

        Under the pool lock, so :meth:`close` either sees the thread
        started or refuses it the connection: it never joins a thread
        that has not started."""
        thread = threading.Thread(
            target=self._serve_connection, args=(conn, conn_id, local),
            name=f"repro-conn-{conn_id}", daemon=True)
        with self._lock:
            if self._closed:
                conn.close()
                return
            thread.start()
            self._threads.append(thread)

    def _serve_connection(self, conn: socket.socket, conn_id: int,
                          local: "_LocalWorker | None" = None) -> None:
        worker = local.name if local is not None else f"conn-{conn_id}"
        try:
            if local is None:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while True:
                message = recv_frame(conn)
                if message is None:
                    return
                op = message.get("op")
                if op == "hello":
                    worker = str(message.get("worker") or worker)
                    self._workers[conn_id] = worker
                    self._conns[conn_id] = conn
                    self._peak = max(self._peak, len(self._workers))
                    if local is not None:
                        local.greeted = True
                    self._ever_connected.set()
                    _WORKERS_CONNECTED.set(len(self._workers))
                    self._emit("worker_connected", worker=worker,
                               pid=message.get("pid"))
                    send_frame(conn, {"op": "welcome",
                                      "lease_timeout": self.lease_timeout})
                elif op == "lease":
                    send_frame(conn, self._grant_lease(worker, conn_id))
                elif op == "result":
                    send_frame(conn, self._accept_result(worker, message))
                else:
                    raise ProtocolError(f"unknown op {op!r}")
        except (ProtocolError, ConnectionError, OSError, ValueError) as exc:
            if not self._closed:
                self._emit("worker_disconnected", worker=worker,
                           error=f"{type(exc).__name__}: {exc}")
        finally:
            self._workers.pop(conn_id, None)
            self._conns.pop(conn_id, None)
            _WORKERS_CONNECTED.set(len(self._workers))
            if local is not None:
                # a local worker is useless without its channel: kill it, and
                # the run loop reaps it, expires its lease and respawns it
                if not self._closed:
                    local.proc.kill()
            else:
                released = self._release_leases(conn_id)
                if released and not self._closed:
                    # expire this worker's leases *now*; the run loop re-issues
                    self._emit("leases_released", worker=worker, keys=released)
            try:
                conn.close()
            except OSError:
                pass

    def _grant_lease(self, worker: str, conn_id: int) -> dict:
        with self._work:
            give_up = time.monotonic() + _LEASE_WAIT_S
            while True:
                if self._closed:
                    return {"op": "bye"}
                batch = self._batch
                key = None
                if batch is not None and not batch.draining:
                    while batch.ready:
                        candidate = batch.ready.popleft()
                        if candidate not in batch.settled:
                            key = candidate
                            break
                if key is not None:
                    break
                wait = give_up - time.monotonic()
                if wait <= 0:
                    return {"op": "idle", "retry_s": 0.0}
                self._work.wait(wait)
            unit = batch.by_key[key]
            lease_id = next(self._lease_ids)
            now = time.monotonic()
            deadline = (now + self.lease_timeout
                        if self.lease_timeout else float("inf"))
            batch.leases[lease_id] = _Lease(lease_id, key, worker, conn_id,
                                            deadline, now)
        self._emit("lease_issued", key=key, label=unit.describe(),
                   worker=worker, lease=lease_id,
                   attempt=batch.attempts.get(key, 0))
        return {"op": "unit", "lease": lease_id, "key": key,
                "kind": unit.kind, "spec": encode_spec(unit.spec),
                "label": unit.describe()}

    def _accept_result(self, worker: str, message: dict) -> dict:
        """Queue a result for the run loop and wait for the settle verdict.

        The reply — the worker's acknowledgement — is only produced after
        the run loop has run ``on_result`` (journal write included) or
        rejected the result, which is what makes every ack mean
        *durable*."""
        with self._lock:
            batch = self._batch
        if batch is None:
            return {"op": "ack", "settled": False}
        box = {"done": threading.Event(), "settled": False}
        batch.inbox.put((box, worker, message))
        # generous bound: the run loop settles in micro-seconds unless it
        # is tearing down, in which case the unit simply re-runs later
        box["done"].wait(timeout=60.0)
        return {"op": "ack", "settled": box["settled"]}

    def _release_leases(self, conn_id: int) -> "list[str]":
        """Expire every lease a connection holds now; returns the keys."""
        released: list[str] = []
        with self._lock:
            batch = self._batch
            if batch is None:
                return released
            for lease in batch.leases.values():
                if lease.conn_id == conn_id and lease.deadline != 0.0:
                    lease.deadline = 0.0  # the run loop's expiry scan reissues
                    released.append(lease.key)
        return released

    # ── local workers ─────────────────────────────────────────────────────

    def _spawn_local(self) -> _LocalWorker:
        """Start one local worker on a fresh socketpair (raises OSError).

        The child gets what it cannot inherit: this process's
        ``sys.path``, the observability switch, and the modules that
        register the executors it may be asked to run."""
        name = f"local-{next(self._local_ids)}"
        mine, theirs = socket.socketpair()
        boot = {"path": sys.path, "fd": theirs.fileno(), "name": name,
                "imports": executor_modules()}
        env = dict(os.environ, REPRO_OBS="1" if obs.enabled() else "0")
        try:
            proc = subprocess.Popen(
                [sys.executable, "-c", _LOCAL_ENTRY, json.dumps(boot)],
                stdin=subprocess.DEVNULL, env=env,
                pass_fds=(theirs.fileno(),),
                # its own session: a terminal Ctrl-C reaches only the
                # coordinator, which then drains
                start_new_session=True,
            )
        except BaseException:
            mine.close()
            raise
        finally:
            theirs.close()
        worker = _LocalWorker(name, proc, mine)
        conn_id = next(self._conn_ids)
        self._local[conn_id] = worker
        self._emit("worker_started", worker=name, pid=proc.pid)
        self._serve(mine, conn_id, worker)
        return worker

    def _reap_local(self, batch: _Batch, draining: bool) -> None:
        """Retire dead local workers; fail over once none is left."""
        for conn_id, worker in list(self._local.items()):
            if worker.proc.poll() is not None:
                self._local_died(batch, conn_id, "process died", draining)
        if not self._local and self._listener is None and not draining:
            raise PoolUnavailable("no local worker is left running")

    def _local_died(self, batch: _Batch, conn_id: int, cause: str,
                    draining: bool, key: "str | None" = None) -> None:
        """Kill and reap a local worker, expire its lease, respawn it."""
        worker = self._local.pop(conn_id)
        _stop(worker.proc)
        released = self._release_leases(conn_id)
        key = key or (released[0] if released else None)
        self._emit("worker_crashed", worker=worker.name, cause=cause,
                   exitcode=worker.proc.returncode, key=key,
                   label=batch.by_key[key].describe() if key else None)
        if not worker.greeted or draining:
            # a worker that never said hello will not say it on a retry
            # either; a drain starts nothing new
            return
        try:
            fresh = self._spawn_local()
        except OSError:
            return  # _reap_local fails over once no worker is left
        self._emit("worker_restarted", worker=fresh.name, replaces=worker.name)

    # ── the run loop (the caller's thread) ────────────────────────────────

    def run(
        self,
        units: Iterable[WorkUnit],
        on_result: "Callable[[str, dict], None] | None" = None,
    ) -> dict[str, dict]:
        """Execute all units on the pool's workers; ``{key: payload}``.

        Raises :class:`UnitFailure` on an executor exception or an
        exhausted lease budget, :class:`RunInterrupted` on a drain, and
        :class:`PoolUnavailable` when no worker can run the batch: local
        workers cannot start, or ``worker_timeout`` elapses with no TCP
        worker ever connected.  Every unit settled before that was
        already delivered through ``on_result``; the rest may run
        elsewhere.
        """
        by_key: dict[str, WorkUnit] = {}
        for u in units:
            by_key.setdefault(u.key, u)
        if not by_key:
            return {}
        if self._closed:
            raise PoolUnavailable("the pool is closed")
        batch = _Batch(by_key)
        with self._work:
            self._batch = batch
            self._work.notify_all()
        results: dict[str, dict] = {}
        draining = False
        drain_deadline = 0.0
        batch_started = time.monotonic()

        try:
            try:
                # start the local workers, or replace those a drain retired
                for _ in range(self.local_workers - len(self._local)):
                    self._spawn_local()
            except OSError as exc:
                raise PoolUnavailable(
                    f"cannot start a local worker: {exc}") from exc
            while len(results) < len(by_key):
                now = time.monotonic()
                _QUEUE_DEPTH.set(len(by_key) - len(results))
                if (not draining and self.should_stop is not None
                        and self.should_stop()):
                    draining = True
                    drain_deadline = now + self.drain_grace
                    with self._lock:
                        batch.draining = True
                        in_flight = len(batch.leases)
                    self._emit("drain_started", in_flight=in_flight,
                               pending=len(by_key) - len(results),
                               grace_s=self.drain_grace)
                if not draining:
                    with self._work:
                        still: "list[tuple[float, str]]" = []
                        for eligible_at, key in batch.delayed:
                            if eligible_at <= now:
                                batch.ready.append(key)
                            else:
                                still.append((eligible_at, key))
                        if len(still) < len(batch.delayed):
                            self._work.notify_all()
                        batch.delayed = still
                if (self.worker_timeout is not None
                        and not self._ever_connected.is_set()
                        and not results
                        and now - batch_started > self.worker_timeout):
                    raise PoolUnavailable(
                        f"no remote worker connected within "
                        f"{self.worker_timeout:g}s of the batch starting")
                # settle at most one result per iteration (keeps the expiry
                # and drain checks responsive)
                try:
                    box, worker, message = batch.inbox.get(timeout=_POLL_S)
                except queue_mod.Empty:
                    pass
                else:
                    self._settle(batch, results, by_key, on_result,
                                 box, worker, message)
                if self.local_workers:
                    self._reap_local(batch, draining)
                # lease expiry → re-issue with backoff, bounded attempts
                now = time.monotonic()
                expired: list[_Lease] = []
                with self._lock:
                    for lease_id in [lid for lid, l in batch.leases.items()
                                     if l.deadline <= now]:
                        expired.append(batch.leases.pop(lease_id))
                for lease in expired:
                    if lease.conn_id in self._local:
                        # a live local worker overran its lease: kill it
                        self._emit("unit_timeout", key=lease.key,
                                   label=by_key[lease.key].describe(),
                                   worker=lease.worker,
                                   timeout_s=self.lease_timeout)
                        self._local_died(batch, lease.conn_id, "unit timeout",
                                         draining, key=lease.key)
                    if lease.key in results:
                        continue
                    batch.attempts[lease.key] += 1
                    attempt = batch.attempts[lease.key]
                    unit = by_key[lease.key]
                    self._emit("lease_expired", key=lease.key,
                               label=unit.describe(), worker=lease.worker,
                               attempt=attempt)
                    if attempt > self.max_retries:
                        raise UnitFailure(
                            unit,
                            f"lease expired {attempt} time(s) (last worker: "
                            f"{lease.worker}); retry budget "
                            f"{self.max_retries} exhausted",
                        )
                    delay = min(self.backoff * (2 ** (attempt - 1)),
                                self.max_backoff)
                    with self._lock:
                        if draining:
                            batch.delayed.append((float("inf"), lease.key))
                        else:
                            batch.delayed.append((now + delay, lease.key))
                    self._emit("unit_retry", key=lease.key,
                               label=unit.describe(), attempt=attempt,
                               delay_s=round(delay, 3))
                if draining:
                    with self._lock:
                        leased = sorted({l.key for l in batch.leases.values()
                                         if l.key not in results})
                        parked = sorted({k for _, k in batch.delayed
                                         if k not in results})
                    if not leased or time.monotonic() > drain_deadline:
                        abandoned = sorted(set(leased) | set(parked))
                        pending = len(by_key) - len(results) - len(abandoned)
                        raise RunInterrupted(
                            "stop requested", settled=len(results),
                            abandoned=abandoned, pending=pending,
                        )
        finally:
            with self._lock:
                self._batch = None
            # unblock any connection thread still parked on the inbox
            while True:
                try:
                    box, _worker, _message = batch.inbox.get_nowait()
                except queue_mod.Empty:
                    break
                box["settled"] = False
                box["done"].set()
            _QUEUE_DEPTH.set(0)
        return results

    def _settle(self, batch: _Batch, results: dict, by_key: dict,
                on_result, box: dict, worker: str, message: dict) -> None:
        """Process one result frame (in the run-loop thread).

        Order matters: ``on_result`` — which journals — runs before
        ``box["done"].set()`` releases the worker's ack."""
        key = message.get("key")
        lease_id = message.get("lease")
        with self._lock:
            lease = batch.leases.pop(lease_id, None)
        obs.merge_delta(message.get("obs"), worker=worker)
        if key not in by_key or key in results:
            self._emit("duplicate_settle", key=key, worker=worker,
                       lease=lease_id, stale=lease is None)
            box["settled"] = False
            box["done"].set()
            return
        if not message.get("ok"):
            box["settled"] = False
            box["done"].set()
            raise UnitFailure(
                by_key[key],
                f"executor raised on worker {worker}:\n"
                f"{message.get('error', '(no traceback)')}",
            )
        payload = message.get("payload")
        if not isinstance(payload, dict):
            box["settled"] = False
            box["done"].set()
            raise UnitFailure(by_key[key],
                              f"worker {worker} sent a non-dict payload")
        results[key] = payload
        if on_result is not None:
            on_result(key, payload)  # write-ahead: journal before the ack
        with self._lock:
            batch.settled.add(key)
        if lease is not None:
            _UNIT_SECONDS.observe(time.monotonic() - lease.issued,
                                  pool=self._label)
        box["settled"] = True
        box["done"].set()
        self._emit("unit_done", key=key, label=by_key[key].describe(),
                   worker=worker)

    # ── lifecycle ─────────────────────────────────────────────────────────

    def close(self) -> None:
        """Stop the pool.  Waiting workers are told ``bye`` and hang up;
        connections still busy after two seconds are dropped, and their
        local workers SIGKILLed.  A busy TCP worker exits once its
        reconnect window (``--retry-for``) runs dry."""
        if self._closed:
            return
        with self._work:
            self._closed = True
            self._work.notify_all()
            threads = list(self._threads)
        connected = len(self._workers)
        for worker in self._local.values():
            if not worker.greeted:  # holds nothing worth waiting for
                _stop(worker.proc)
        deadline = time.monotonic() + 2.0
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        # ending the reads makes each remaining connection thread close its
        # connection; it also wakes the accept loop
        socks = [*self._conns.values(), *(w.sock for w in self._local.values())]
        if self._listener is not None:
            socks.append(self._listener)
        for sock in socks:
            try:
                sock.shutdown(socket.SHUT_RD)
            except OSError:
                pass
        for worker in self._local.values():
            _stop(worker.proc, max(0.0, deadline - time.monotonic()))
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
            self._listener.close()
        self._emit("pool_closed", workers=connected)
        self._workers.clear()
        self._conns.clear()
        self._local.clear()

    def __enter__(self) -> "RemotePool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ── worker ─────────────────────────────────────────────────────────────────


def run_worker(
    connect: "str | socket.socket",
    *,
    name: "str | None" = None,
    retry_for: float = 30.0,
) -> int:
    """The worker loop behind ``repro worker --connect HOST:PORT`` and
    every local worker.

    ``connect`` is either a ``HOST:PORT`` to dial — and *re*-dial: a
    restarted coordinator is picked up transparently, which is what lets
    a resumed run reuse live workers — or an already-connected socket (a
    local worker's end of its socketpair), which is never redialled: when
    it breaks, the coordinator is gone and the worker returns.  The loop
    leases units, executes them with the ordinary executor registry and
    streams results + :func:`repro.obs.drain` deltas back.  Exits 0 when
    the coordinator says ``bye`` or when ``retry_for`` seconds pass
    without a successful connect *or* a granted lease — so idle workers
    wind down on their own after a run ends.
    """
    channel = connect if isinstance(connect, socket.socket) else None
    if channel is None:
        host, port = parse_hostport(connect)
    worker_name = name or f"{socket.gethostname()}-{os.getpid()}"
    sock: "socket.socket | None" = None
    dialled = False
    deadline = time.monotonic() + retry_for

    def _drop_connection() -> None:
        nonlocal sock
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass
            sock = None

    def _dial() -> socket.socket:
        if channel is not None:
            conn = channel
        else:
            conn = socket.create_connection((host, port), timeout=5.0)
            conn.settimeout(None)
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            send_frame(conn, {"op": "hello", "worker": worker_name,
                              "pid": os.getpid()})
            welcome = recv_frame(conn)
            if welcome is None or welcome.get("op") != "welcome":
                raise ProtocolError("coordinator did not welcome us")
        except BaseException:
            conn.close()
            raise
        return conn

    try:
        while True:
            if sock is None:
                if channel is not None and dialled:
                    return 0  # the coordinator closed our socketpair
                if time.monotonic() > deadline:
                    log.info("worker %s: no coordinator within %.0fs; exiting",
                             worker_name, retry_for)
                    return 0
                dialled = True
                try:
                    sock = _dial()
                except (OSError, ConnectionError):
                    if channel is None:
                        time.sleep(_IDLE_POLL_S)
                    continue
                deadline = time.monotonic() + retry_for
                log.info("worker %s: connected to %s", worker_name,
                         connect if channel is None else "its coordinator")
            try:
                send_frame(sock, {"op": "lease"})
                reply = recv_frame(sock)
            except (OSError, ConnectionError):
                _drop_connection()
                continue
            if reply is None:
                _drop_connection()
                continue
            op = reply.get("op")
            if op == "bye":
                return 0
            if op == "idle":
                if time.monotonic() > deadline:
                    return 0
                time.sleep(float(reply.get("retry_s", _IDLE_POLL_S)))
                continue
            if op != "unit":
                _drop_connection()
                continue
            key = reply["key"]
            try:
                payload = execute(reply["kind"], decode_spec(reply["spec"]))
                result = {"op": "result", "lease": reply["lease"], "key": key,
                          "ok": True, "payload": payload}
            except BaseException:  # noqa: BLE001 - traceback to coordinator
                result = {"op": "result", "lease": reply["lease"], "key": key,
                          "ok": False, "error": traceback.format_exc(limit=30)}
            delta = obs.drain()
            if delta is not None:
                result["obs"] = delta
            try:
                send_frame(sock, result)
                recv_frame(sock)  # the ack: sent only after the settle
            except (OSError, ConnectionError):
                _drop_connection()
                continue
            deadline = time.monotonic() + retry_for
    finally:
        _drop_connection()


def _local_worker(boot: dict) -> int:
    """A local worker subprocess: import the modules that register the
    coordinator's executors, then run the lease loop on its inherited end
    of the socketpair, never idling out (the coordinator owns its life)."""
    for module in boot["imports"]:
        importlib.import_module(module)
    channel = socket.socket(fileno=boot["fd"])
    return run_worker(channel, name=boot["name"], retry_for=float("inf"))
