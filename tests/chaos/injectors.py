"""Deterministic fault injection for the engine's crash-safety contract.

The crash-safe run machinery (journal, drain, resume) is only as good as
the failures it has been proven against, so this module packages every
failure mode the engine claims to survive as a *seeded, reproducible*
injector.  The chaos suite (``tests/chaos/``) and the CI ``chaos`` job
drive these to assert the headline property: an interrupted run, resumed
with ``--resume``, produces **byte-identical** reports to an
uninterrupted one.

Injectors
---------
* **worker kill / unit hang** — executors (registered under the
  ``chaos-kill-once`` / ``chaos-hang-once`` kinds when this module is
  imported) that SIGKILL their own worker process or hang past the unit
  timeout on the first attempt and succeed on the retry.  Local workers
  inherit the coordinator's ``sys.path`` and import this module through
  :func:`repro.engine.units.executor_modules`, so the kinds run there;
* **corrupted or truncated files** — :func:`corrupt_file` and
  :func:`truncate_tail` damage sweep-store entries and journal tails the
  way real crashes and bad disks do (the read sides must treat both as
  misses, never as errors);
* **cache-write failure** — :class:`FlakyStore` wraps a
  :class:`~repro.experiments.store.SweepStore` and deterministically
  drops chosen ``put`` calls, simulating a full disk (the run must still
  complete, and the journal must still make it resumable);
* **parent-process death** — ``tests/chaos/kill_at_settle.py N <argv>``
  runs the CLI with :meth:`~repro.engine.journal.RunJournal.record`
  wrapped so the process SIGKILLs itself once the *N*-th record is
  durable, the harshest interruption point the resume path must recover
  from;
* **network faults** — :class:`NetChaos` plans per-result misbehaviour
  and :func:`net_chaos_peer` obeys it against a live
  :class:`~repro.engine.remote.RemotePool`: dropped result frames (the
  lease must expire and be re-issued), duplicated frames (the
  coordinator must dedupe by unit key), torn frames (half a frame then a
  dead connection) and delayed sends (slow workers).

Everything takes an explicit seed (:class:`Chaos` wraps
``random.Random``) so a failing chaos scenario replays exactly.
"""

from __future__ import annotations

import json
import os
import random
import signal
import socket
import struct
import time
from pathlib import Path
from typing import Iterable, Sequence

from repro.engine.remote import (
    decode_spec,
    parse_hostport,
    recv_frame,
    run_worker,
    send_frame,
)
from repro.engine.units import execute, register_executor


class Chaos:
    """Seeded decision source so every injected fault is replayable."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.rng = random.Random(seed)

    def settle_point(self, n_units: int) -> int:
        """A settle count to die at, strictly inside the run (1..n-1)."""
        if n_units < 2:
            return 1
        return self.rng.randrange(1, n_units)

    def pick(self, seq: Sequence):
        """One deterministic choice from a sequence."""
        return seq[self.rng.randrange(len(seq))]

    def indices(self, n: int, k: int) -> "set[int]":
        """``k`` distinct indices out of ``n`` (for choosing victims)."""
        k = max(0, min(k, n))
        return set(self.rng.sample(range(n), k))


# ── file corruption ────────────────────────────────────────────────────────


def corrupt_file(path: "str | Path", mode: str = "truncate", seed: int = 0) -> Path:
    """Damage a file the way crashes and bit rot do.

    ``truncate`` cuts the file at a seeded interior point (a half-written
    entry), ``garbage`` overwrites a seeded slice with junk bytes (bit
    rot), ``empty`` leaves a zero-byte file (an interrupted create).
    """
    path = Path(path)
    data = path.read_bytes()
    rng = random.Random(seed)
    if mode == "truncate":
        cut = rng.randrange(1, len(data)) if len(data) > 1 else 0
        path.write_bytes(data[:cut])
    elif mode == "garbage":
        if data:
            start = rng.randrange(len(data))
            end = min(len(data), start + max(1, len(data) // 4))
            junk = bytes(rng.randrange(256) for _ in range(end - start))
            path.write_bytes(data[:start] + junk + data[end:])
    elif mode == "empty":
        path.write_bytes(b"")
    else:
        raise ValueError(f"unknown corruption mode {mode!r}; "
                         "expected truncate|garbage|empty")
    return path


def truncate_tail(path: "str | Path", nbytes: int = 7) -> Path:
    """Cut the last ``nbytes`` off a file — the exact shape of a journal
    whose writer was killed mid-append."""
    path = Path(path)
    data = path.read_bytes()
    path.write_bytes(data[: max(0, len(data) - nbytes)])
    return path


def corrupt_store_entry(store, key: str, mode: str = "truncate",
                        seed: int = 0) -> Path:
    """Corrupt one committed sweep-store entry (``store.path_for(key)``)."""
    return corrupt_file(store.path_for(key), mode=mode, seed=seed)


# ── cache-write failure ────────────────────────────────────────────────────


class FlakyStore:
    """A sweep-store wrapper whose writes deterministically fail.

    Wraps any object with the :class:`~repro.experiments.store.SweepStore`
    interface; ``put`` calls whose 0-based index is in ``fail_puts`` (or
    *all* of them with ``fail_all``) are dropped and report ``None`` —
    exactly the store's own disk-full behaviour.  Reads pass through, so
    the run sees a cache that silently loses writes.
    """

    def __init__(self, inner, *, fail_puts: "Iterable[int]" = (),
                 fail_all: bool = False):
        self.inner = inner
        self.fail_puts = set(fail_puts)
        self.fail_all = fail_all
        self.puts = 0
        self.dropped = 0

    def put(self, key: str, payload: dict) -> "Path | None":
        index = self.puts
        self.puts += 1
        if self.fail_all or index in self.fail_puts:
            self.dropped += 1
            return None
        return self.inner.put(key, payload)

    # reads and bookkeeping delegate untouched
    def get(self, key: str):
        return self.inner.get(key)

    def path_for(self, key: str):
        return self.inner.path_for(key)

    def key_for(self, description: dict) -> str:
        return self.inner.key_for(description)

    def clear(self) -> int:
        return self.inner.clear()

    def __len__(self) -> int:
        return len(self.inner)

    @property
    def root(self):
        return self.inner.root


# ── network faults (remote worker protocol) ────────────────────────────────


class NetChaos:
    """A per-result misbehaviour plan for a remote worker.

    :func:`net_chaos_peer` consults :meth:`plan` with the 0-based index
    of each result it is about to send and obeys the returned
    ``(action, delay_s)``:

    ``"send"``
        behave normally (after sleeping ``delay_s``);
    ``"drop"``
        never send the result — the coordinator's lease must expire and
        the unit be re-issued;
    ``"duplicate"``
        send the result frame twice — the coordinator must settle once
        and flag the second as a ``duplicate_settle``;
    ``"torn"``
        send only the first half of the frame and drop the connection —
        the coordinator must treat the torn frame as a disconnect, not a
        result.

    Index sets can be given explicitly, or drawn from a seed via
    :meth:`seeded`.  :meth:`parse` reads the compact text form, e.g.
    ``"drop=0,duplicate=2,delay=0.5"`` (comma-separated ``action=index``
    pairs; ``delay`` takes seconds and applies to every send).
    """

    def __init__(self, *, drop: "Iterable[int]" = (),
                 duplicate: "Iterable[int]" = (),
                 torn: "Iterable[int]" = (), delay_s: float = 0.0):
        self.drop = set(drop)
        self.duplicate = set(duplicate)
        self.torn = set(torn)
        self.delay_s = float(delay_s)

    def plan(self, index: int) -> "tuple[str, float]":
        if index in self.torn:
            return "torn", self.delay_s
        if index in self.drop:
            return "drop", self.delay_s
        if index in self.duplicate:
            return "duplicate", self.delay_s
        return "send", self.delay_s

    @classmethod
    def seeded(cls, seed: int, n_results: int, *, n_drop: int = 1,
               n_duplicate: int = 1, delay_s: float = 0.0) -> "NetChaos":
        """Victim indices drawn deterministically from ``seed``."""
        chaos = Chaos(seed)
        drop = chaos.indices(n_results, n_drop)
        remaining = [i for i in range(n_results) if i not in drop]
        dup = {remaining[i] for i in
               chaos.indices(len(remaining), n_duplicate)} if remaining else set()
        return cls(drop=drop, duplicate=dup, delay_s=delay_s)

    @classmethod
    def parse(cls, spec: str) -> "NetChaos":
        """Build a plan from the text form ``action=value[,action=value...]``."""
        kwargs = {"drop": set(), "duplicate": set(), "torn": set()}
        delay = 0.0
        for part in filter(None, (p.strip() for p in spec.split(","))):
            action, _, value = part.partition("=")
            if action == "delay":
                delay = float(value)
            elif action in kwargs:
                kwargs[action].add(int(value))
            else:
                raise ValueError(
                    f"unknown chaos-net action {action!r}; "
                    "expected drop|duplicate|torn|delay")
        return cls(delay_s=delay, **kwargs)


def net_chaos_peer(address: str, plan: NetChaos, *, name: str,
                   retry_for: float = 15.0) -> int:
    """A scripted worker that misbehaves on the wire as ``plan`` says.

    It speaks the worker side of the lease protocol on one connection to
    the coordinator at ``address`` — ``hello``, then ``lease`` → execute
    (:func:`repro.engine.units.execute`) → ``result`` — until told
    ``bye`` or hung up on.  After a torn frame the connection is dead, so
    it hands over to a real :func:`~repro.engine.remote.run_worker` under
    the same ``name``, which reconnects and finishes the batch.
    """
    index = 0
    with socket.create_connection(parse_hostport(address)) as sock:
        try:
            send_frame(sock, {"op": "hello", "worker": name,
                              "pid": os.getpid()})
            recv_frame(sock)  # welcome
            while True:
                send_frame(sock, {"op": "lease"})
                reply = recv_frame(sock)
                if reply is None or reply.get("op") == "bye":
                    return 0
                if reply.get("op") != "unit":
                    continue  # idle: ask again
                result = {"op": "result", "lease": reply["lease"],
                          "key": reply["key"], "ok": True,
                          "payload": execute(reply["kind"],
                                             decode_spec(reply["spec"]))}
                action, delay = plan.plan(index)
                index += 1
                time.sleep(delay)
                if action == "drop":
                    continue  # the lease expires; the coordinator re-issues
                if action == "torn":
                    body = json.dumps(result, separators=(",", ":"),
                                      default=str).encode()
                    blob = struct.pack(">I", len(body)) + body
                    sock.sendall(blob[: max(5, len(blob) // 2)])
                    break
                send_frame(sock, result)
                recv_frame(sock)  # the ack: sent only after the settle
                if action == "duplicate":
                    send_frame(sock, result)
                    recv_frame(sock)  # acked with settled=false
        except (OSError, ConnectionError):
            return 0
    return run_worker(address, name=name, retry_for=retry_for)


# ── fault-injecting executors (for pool-level chaos tests) ─────────────────

KILL_ONCE = "chaos-kill-once"
HANG_ONCE = "chaos-hang-once"


def _kill_once(spec: tuple) -> dict:
    """SIGKILL this worker on the first attempt; succeed on the retry.

    ``spec`` is ``(marker_path, value)``; the marker file records that an
    attempt already died, making the injection exactly-once.
    """
    marker, value = spec
    if not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return {"value": value}


def _hang_once(spec: tuple) -> dict:
    """Sleep past the unit timeout on the first attempt; then succeed.

    ``spec`` is ``(marker_path, hang_seconds, value)``.
    """
    marker, hang_seconds, value = spec
    if not os.path.exists(marker):
        open(marker, "w").close()
        time.sleep(hang_seconds)
    return {"value": value}


register_executor(KILL_ONCE, _kill_once)
register_executor(HANG_ONCE, _hang_once)
