"""Trace program serialisation (JSONL).

Traces are the simulator's interface; being able to dump and reload them
makes runs inspectable and lets users archive a workload's compiled form
(or hand-craft programs) without touching the workload layer.

Format: one JSON object per line.

* line 1 — header: ``{"kind": "program", "name": ..., "n_threads": ...,
  "metadata": {...}}``
* then one line per op: ``{"t": thread_id, "op": "C|L|S|B|K|U|PB|PE",
  ...fields}`` in program order per thread (threads may interleave; order
  within a thread id is preserved).

Both directions work on a trace's integer columns
(:meth:`~repro.simx.trace.ThreadTrace.columns`): :func:`dump_program`
writes its records from them and :func:`load_program` builds them
straight from the records, so neither holds a program as op objects.
:func:`op_to_record` and :func:`op_from_record` convert one op object.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

from repro.simx.trace import (
    OP_TYPES,
    PHASE_BEGIN,
    Op,
    ThreadTrace,
    TraceProgram,
)

__all__ = ["dump_program", "load_program", "op_to_record", "op_from_record"]

#: ``(record tag, argument key)`` per kind code
_RECORDS = (("C", "n"), ("L", "a"), ("S", "a"), ("B", "id"), ("K", "id"),
            ("U", "id"), ("PB", "p"), ("PE", "p"))
_KIND_OF_TAG = {tag: kind for kind, (tag, _) in enumerate(_RECORDS)}


def op_to_record(tid: int, op: Op) -> dict:
    """One op as a JSON-compatible record."""
    if type(op) not in OP_TYPES:
        raise TypeError(f"unknown op {op!r}")
    tag, key = _RECORDS[OP_TYPES.index(type(op))]
    return {"t": tid, "op": tag, key: getattr(op, fields(op)[0].name)}


def _kind_and_arg(rec: dict) -> tuple[int, object]:
    """A record's kind code and raw argument; ValueError for an unknown
    tag, KeyError for a missing field."""
    tag = rec.get("op")
    kind = _KIND_OF_TAG.get(tag)
    if kind is None:
        raise ValueError(f"unknown op kind {tag!r} in {rec}")
    return kind, rec[_RECORDS[kind][1]]


def op_from_record(rec: dict) -> tuple[int, Op]:
    """Inverse of :func:`op_to_record`."""
    kind, arg = _kind_and_arg(rec)
    return rec["t"], OP_TYPES[kind](arg)


def dump_program(program: TraceProgram, path: "str | Path") -> Path:
    """Write a trace program to a JSONL file, one record per op read
    from each thread's columns; returns the path."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with p.open("w") as fh:
        fh.write(json.dumps({
            "kind": "program",
            "name": program.name,
            "n_threads": program.n_threads,
            "metadata": program.metadata,
        }) + "\n")
        for thread in program.threads:
            tid = thread.thread_id
            kinds, args, labels = thread.columns()
            for kind, arg in zip(kinds.tolist(), args.tolist()):
                tag, key = _RECORDS[kind]
                record = {"t": tid, "op": tag,
                          key: labels[arg] if kind >= PHASE_BEGIN else arg}
                fh.write(json.dumps(record) + "\n")
    return p


def load_program(path: "str | Path") -> TraceProgram:
    """Read a trace program back from a JSONL file, building each
    thread's columns straight from its records.

    Raises :class:`OSError` if the file cannot be read and
    :class:`ValueError` if it is malformed (naming the line for a bad op
    record).
    """
    p = Path(path)
    with p.open() as fh:
        header_line = fh.readline()
        if not header_line:
            raise ValueError(f"{p}: empty trace file")
        header = json.loads(header_line)
        if header.get("kind") != "program":
            raise ValueError(f"{p}: missing program header")
        # per thread: kind codes, arguments, phase label -> index
        columns: dict[int, tuple[list, list, dict]] = {
            t: ([], [], {}) for t in range(header["n_threads"])
        }
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                kind, arg = _kind_and_arg(rec)
                thread = columns.get(rec["t"])
                if thread is not None and kind >= PHASE_BEGIN:
                    arg = thread[2].setdefault(arg, len(thread[2]))
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise ValueError(f"{p}:{lineno}: bad op record: {exc!r}") from exc
            if thread is None:
                raise ValueError(
                    f"{p}: op for thread {rec['t']} outside 0..{header['n_threads'] - 1}"
                )
            thread[0].append(kind)
            thread[1].append(arg)
    threads = []
    for tid, (kinds, args, labels) in sorted(columns.items()):
        try:
            threads.append(ThreadTrace.from_columns(tid, kinds, args, labels))
        except ValueError as exc:
            raise ValueError(f"{p}: thread {tid}: {exc}") from exc
    return TraceProgram(
        name=header["name"],
        threads=threads,
        metadata=header.get("metadata", {}),
    )
