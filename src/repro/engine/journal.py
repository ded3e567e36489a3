"""Write-ahead run journal: crash-safe, resumable experiment runs.

A *run* is one CLI invocation (``repro run table2 --run-id nightly``)
whose settled work units must survive the death of the whole process —
``kill -9``, OOM, a full disk, a power-cycled CI runner.  The engine's
worker pool (:class:`~repro.engine.remote.RemotePool`) already tolerates
*worker* deaths within a run — a dead worker loses only its lease; this
module makes the run itself, coordinator included, recoverable:

* every settled ``(unit key → payload)`` is appended to a per-run JSONL
  **journal** before it is offered to any cache tier (write-ahead
  ordering: the durable record exists before anything depends on it);
* appends are atomic at line granularity — one ``write()`` of one
  ``\\n``-terminated line, flushed to the OS immediately, so a process
  killed at any instant leaves at most one truncated *tail* line;
* every record carries a content checksum over ``(key, payload)``, so
  replay can tell a corrupt line from a valid one without trusting the
  writer;
* :meth:`RunJournal.replay` is deliberately forgiving: a truncated tail
  is the *expected* signature of a crash and is silently dropped, any
  other corrupt line is skipped and counted — a journal must never turn
  disk corruption into an unresumable run.

On resume (``repro run --resume <run-id>``) the journal is replayed into
memory and acts as a cache tier consulted *ahead of* the on-disk
:class:`~repro.experiments.store.SweepStore` — so a resumed run
re-executes only the units that had not settled, even if every sweep
cache write of the first attempt was lost.

Run directories live under ``.repro-cache/runs/<run-id>/`` (override
with ``REPRO_RUNS_DIR``) and hold the journal, the engine event log, and
a small manifest recording what the run was asked to do (so ``--resume``
needs no other arguments).  The fault-injection tests SIGKILL real runs
right after a chosen record is durable and check that the resumed
report is byte-identical to an uninterrupted one.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from pathlib import Path
from typing import Callable, Iterator

__all__ = [
    "RunJournal",
    "runs_root",
    "run_path",
    "resolve_run_dir",
    "read_manifest",
    "write_manifest",
]

_JOURNAL_SCHEMA = 1
_MANIFEST_NAME = "manifest.json"
_RUN_ID_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,127}")


def runs_root() -> Path:
    """Directory holding all run directories (``REPRO_RUNS_DIR`` or
    ``.repro-cache/runs`` under the current directory)."""
    return Path(os.environ.get("REPRO_RUNS_DIR", str(Path(".repro-cache") / "runs")))


def validate_run_id(run_id: str) -> str:
    """A run id must be a safe single path component; returns it."""
    if not _RUN_ID_RE.fullmatch(run_id):
        raise ValueError(
            f"invalid run id {run_id!r}: use letters, digits, '.', '_', '-' "
            "(max 128 chars, no leading punctuation)"
        )
    return run_id


def run_path(run_id: str, *, root: "str | Path | None" = None,
             create: bool = False) -> Path:
    """The directory for ``run_id`` (created when ``create`` is set)."""
    validate_run_id(run_id)
    path = Path(root) if root is not None else runs_root()
    path = path / run_id
    if create:
        path.mkdir(parents=True, exist_ok=True)
    return path


def resolve_run_dir(run_id: str, *, root: "str | Path | None" = None) -> Path:
    """The *existing* directory for ``run_id``, for ``--resume``.

    ``runs_root()`` is CWD-relative unless ``REPRO_RUNS_DIR`` is set, so
    resuming from a different working directory used to silently open a
    *fresh* journal and re-execute everything.  This resolver refuses to
    guess: when the run directory (or any trace of the run — manifest or
    journal) is missing it raises :class:`FileNotFoundError` with a hint
    naming the root that was searched and how to point at the right one.
    """
    path = run_path(run_id, root=root)
    if path.is_dir() and (
        (path / _MANIFEST_NAME).exists() or (path / "journal.jsonl").exists()
    ):
        return path
    raise FileNotFoundError(
        f"no run directory for {run_id!r} under {path.parent.resolve()}.\n"
        "hint: the runs root is resolved relative to the current working "
        "directory unless REPRO_RUNS_DIR is set — rerun from the directory "
        "the run was started in, or set REPRO_RUNS_DIR to the absolute "
        "runs root recorded in the run's manifest (`runs_root` field)."
    )


def write_manifest(run_dir: "str | Path", manifest: dict) -> Path:
    """Atomically write a run's manifest (what it was asked to do)."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    path = run_dir / _MANIFEST_NAME
    tmp = run_dir / f"{_MANIFEST_NAME}.{os.getpid()}.tmp"
    tmp.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    os.replace(tmp, path)
    return path


def read_manifest(run_dir: "str | Path") -> "dict | None":
    """A run's manifest, or ``None`` when missing or unreadable."""
    try:
        data = json.loads((Path(run_dir) / _MANIFEST_NAME).read_text())
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


def _checksum(key: str, payload: dict) -> str:
    """Content checksum binding a record's key to its payload."""
    blob = key + "\n" + json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


class RunJournal:
    """An append-only JSONL journal of settled work units for one run.

    Opening an existing journal replays it immediately: valid records
    become in-memory entries served through :meth:`get` (the resume
    cache tier), a truncated tail is dropped (``tail_truncated``), and
    corrupt interior lines are skipped (``dropped``).  :meth:`record`
    appends new entries durably and is idempotent per key.

    Journal *writes* are best-effort in the same sense as the sweep
    store: an unwritable journal (disk full, permissions) disables
    itself, reports through ``on_error`` once, and never fails the run —
    losing crash-safety must not lose the run that is still succeeding.
    """

    def __init__(self, path: "str | Path", *, run_id: "str | None" = None,
                 fsync: "bool | None" = None,
                 on_error: "Callable[[str], None] | None" = None):
        self.path = Path(path)
        self.run_id = run_id
        self.on_error = on_error
        if fsync is None:
            fsync = os.environ.get("REPRO_JOURNAL_FSYNC", "").lower() in (
                "1", "on", "yes", "true",
            )
        self.fsync = fsync
        self.broken = False
        self.dropped = 0
        self.tail_truncated = False
        self._fh = None
        self._entries: dict[str, dict] = {}
        if self.path.exists():
            self._entries = self.replay()

    # ── replay (the read side) ───────────────────────────────────────────

    def replay(self) -> dict[str, dict]:
        """Load every valid record; tolerant of a corrupt/truncated tail."""
        entries: dict[str, dict] = {}
        self.dropped = 0
        self.tail_truncated = False
        try:
            raw = self.path.read_bytes()
        except OSError:
            return entries
        lines = raw.decode("utf-8", errors="replace").split("\n")
        # a well-formed journal ends with "\n": the final split element is
        # empty.  Anything else there is a mid-write tail from a crash.
        if lines and lines[-1] == "":
            lines.pop()
        else:
            self.tail_truncated = True
        last = len(lines) - 1
        for i, line in enumerate(lines):
            rec = self._parse(line)
            if rec is None:
                if i == last:
                    # an unparsable *final* line is the torn tail of a
                    # mid-append crash — expected damage, not corruption
                    self.tail_truncated = True
                else:
                    self.dropped += 1
                continue
            if "h" in rec:  # header record: metadata only
                if self.run_id is None:
                    self.run_id = rec["h"].get("run_id")
                continue
            entries[rec["key"]] = rec["payload"]
        return entries

    @staticmethod
    def _parse(line: str) -> "dict | None":
        line = line.strip()
        if not line:
            return None
        try:
            rec = json.loads(line)
        except ValueError:
            return None
        if not isinstance(rec, dict):
            return None
        if "h" in rec:
            return rec if isinstance(rec["h"], dict) else None
        key, payload, check = rec.get("key"), rec.get("payload"), rec.get("c")
        if not isinstance(key, str) or not isinstance(payload, dict):
            return None
        if check != _checksum(key, payload):
            return None
        return rec

    # ── the cache-tier interface ─────────────────────────────────────────

    def get(self, key: str) -> "dict | None":
        """The journaled payload for ``key``, or ``None``."""
        return self._entries.get(key)

    def keys(self) -> Iterator[str]:
        return iter(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    # ── the write-ahead side ─────────────────────────────────────────────

    def record(self, key: str, payload: dict) -> bool:
        """Durably append one settled unit; ``True`` when newly journaled.

        Idempotent per key (a unit settled from a cache hit and again
        from a replay writes once).  A failed append flips the journal
        into its broken state and reports once through ``on_error``.
        """
        if key in self._entries or self.broken:
            return False
        if not self._write(self._record_line(key, payload)):
            return False
        self._entries[key] = payload
        return True

    def _record_line(self, key: str, payload: dict) -> str:
        return json.dumps(
            {"key": key, "payload": payload, "c": _checksum(key, payload)},
            sort_keys=True, separators=(",", ":"), default=str,
        ) + "\n"

    def _header_line(self) -> str:
        return json.dumps(
            {"h": {"journal": _JOURNAL_SCHEMA, "run_id": self.run_id,
                   "created": time.time()}},
            sort_keys=True,
        ) + "\n"

    def _repair(self) -> None:
        """Rewrite the journal as header + valid entries (atomic).

        A torn tail means the file ends mid-line; appending to it would
        glue the next record onto the fragment and corrupt both.  Before
        the first append of a resumed run the file is rebuilt from the
        replayed entries — dropping exactly the damage replay already
        ignores.
        """
        tmp = self.path.with_name(f"{self.path.name}.{os.getpid()}.repair")
        with tmp.open("w", encoding="utf-8") as fh:
            fh.write(self._header_line())
            for key, payload in self._entries.items():
                fh.write(self._record_line(key, payload))
        os.replace(tmp, self.path)

    def _write(self, line: str) -> bool:
        try:
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                if self.tail_truncated or self.dropped:
                    self._repair()
                fresh = not self.path.exists() or self.path.stat().st_size == 0
                self._fh = self.path.open("a", encoding="utf-8")
                if fresh:
                    self._fh.write(self._header_line())
            self._fh.write(line)
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())
        except (OSError, ValueError) as exc:
            self.broken = True
            if self.on_error is not None:
                self.on_error(f"{type(exc).__name__}: {exc}")
            return False
        return True

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
