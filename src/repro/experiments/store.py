"""Persisting experiment artefacts as JSON.

Two kinds of artefact live here:

* **reports** — structured experiment output (tables, comparisons, notes)
  round-tripping to a stable JSON schema so runs can be archived, diffed
  across code versions, and consumed by external tooling (the CLI's
  ``run --json`` flag); ``raw`` objects (numpy arrays, dataclasses) stay
  in-process;
* **sweep results** — a content-addressed on-disk store
  (:class:`SweepStore`) used by :mod:`repro.pipeline.runtime` as the
  second cache tier, so repeated Table II / Fig 2 sweeps are free across
  CLI invocations.  Keys are SHA-256 hashes of a canonical JSON
  description of everything the result depends on; corrupt or truncated
  entries are treated as misses, never as errors.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from pathlib import Path

from repro import obs
from repro.experiments.report import ExperimentReport, PaperComparison
from repro.util.plain import plainify
from repro.util.tables import TextTable

__all__ = [
    "report_to_dict",
    "report_from_dict",
    "save_report",
    "load_report",
    "SweepStore",
]

_SCHEMA_VERSION = 1

_STORE_WRITES = obs.counter("sweep_store_writes_total",
                            "disk sweep-store writes", labels=("result",))


def report_to_dict(report: ExperimentReport) -> dict:
    """Serialise a report to plain JSON-compatible data."""
    return {
        "schema": _SCHEMA_VERSION,
        "experiment_id": report.experiment_id,
        "title": report.title,
        "tables": [
            {
                "title": t.title,
                "columns": list(t.columns),
                "rows": [[plainify(c) for c in row] for row in t.rows],
            }
            for t in report.tables
        ],
        "comparisons": [
            {
                "claim": c.claim,
                "paper_value": plainify(c.paper_value),
                "measured_value": plainify(c.measured_value),
                "tolerance": plainify(c.tolerance),
                "qualitative": bool(c.qualitative),
                "claim_holds": None if c.claim_holds is None else bool(c.claim_holds),
                "matches": c.matches(),
            }
            for c in report.comparisons
        ],
        "notes": list(report.notes),
        "all_match": report.all_match,
    }


def report_from_dict(data: dict) -> ExperimentReport:
    """Rebuild a report from its JSON form (raw data is not restored)."""
    if data.get("schema") != _SCHEMA_VERSION:
        raise ValueError(
            f"unsupported report schema {data.get('schema')!r}; "
            f"expected {_SCHEMA_VERSION}"
        )
    report = ExperimentReport(data["experiment_id"], data["title"])
    for t in data["tables"]:
        table = TextTable(title=t["title"], columns=t["columns"])
        table.rows = [list(r) for r in t["rows"]]
        report.add_table(table)
    for c in data["comparisons"]:
        report.add_comparison(PaperComparison(
            claim=c["claim"],
            paper_value=c["paper_value"],
            measured_value=c["measured_value"],
            tolerance=c["tolerance"],
            qualitative=c["qualitative"],
            claim_holds=c["claim_holds"],
        ))
    for n in data["notes"]:
        report.add_note(n)
    return report


def save_report(report: ExperimentReport, path: "str | Path") -> Path:
    """Write a report's JSON form to disk; returns the path."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(json.dumps(report_to_dict(report), indent=2, default=str) + "\n")
    return p


def load_report(path: "str | Path") -> ExperimentReport:
    """Read a report back from disk."""
    return report_from_dict(json.loads(Path(path).read_text()))


#: distinguishes temp files from committed entries and from each other
#: when several threads of one process write concurrently (the pid alone
#: disambiguates processes)
_tmp_counter = itertools.count()


class SweepStore:
    """A content-addressed JSON store: one file per key under ``root``.

    Safe under concurrent writers and readers racing on one directory
    (the engine's worker pools, parallel CLI invocations, several hosts
    on a shared filesystem):

    * the read side is deliberately forgiving — any unreadable,
      unparsable, truncated or key-mismatched entry is a *miss*
      (``None``), because a cache must never turn disk corruption into a
      crashed sweep;
    * writes are atomic (a uniquely-named temp file, then ``os.replace``)
      so a killed process cannot leave a half-written entry where a
      reader would find it, and two racing writers of one key simply
      commit twice — entries are content-addressed, so both bodies are
      identical and last-rename-wins is harmless;
    * a *failed* write (disk full, permissions, a racing ``clear``)
      leaves the store unchanged and reports ``None`` instead of
      raising: losing a cache write never loses a result.
    """

    _STORE_SCHEMA = 1

    def __init__(self, root: "str | Path"):
        self.root = Path(root)

    @staticmethod
    def key_for(description: dict) -> str:
        """Hash a JSON-serialisable description into a store key.

        Canonical form (sorted keys, no whitespace) so logically equal
        descriptions always map to the same key.
        """
        blob = json.dumps(description, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> "dict | None":
        """Payload stored under ``key``, or None (missing or corrupt)."""
        try:
            data = json.loads(self.path_for(key).read_text())
        except (OSError, ValueError):
            return None
        if (
            not isinstance(data, dict)
            or data.get("schema") != self._STORE_SCHEMA
            or data.get("key") != key
            or "payload" not in data
        ):
            return None
        return data["payload"]

    def put(self, key: str, payload: dict) -> "Path | None":
        """Atomically store ``payload`` under ``key``.

        Returns the committed path, or ``None`` when the write could not
        be completed (best-effort cache semantics; see the class note).
        """
        path = self.path_for(key)
        record = {"schema": self._STORE_SCHEMA, "key": key, "payload": payload}
        tmp = self.root / f"{key}.{os.getpid()}.{next(_tmp_counter)}.tmp"
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(record, sort_keys=True) + "\n")
            os.replace(tmp, path)
        except (OSError, TypeError, ValueError):
            # TypeError/ValueError: payload not JSON-serialisable — as much
            # a failed write as a full disk, and must honour the same
            # never-raise contract
            try:
                tmp.unlink()
            except OSError:
                pass
            _STORE_WRITES.inc(result="failed")
            return None
        _STORE_WRITES.inc(result="committed")
        return path

    def clear(self) -> int:
        """Delete every entry (plus any abandoned temp files from killed
        writers); returns how many entries were removed."""
        removed = 0
        if self.root.is_dir():
            for p in self.root.glob("*.json"):
                try:
                    p.unlink()
                    removed += 1
                except OSError:
                    pass
            for p in self.root.glob("*.tmp"):
                try:
                    p.unlink()
                except OSError:
                    pass
        return removed

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))
