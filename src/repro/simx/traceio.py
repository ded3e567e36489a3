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
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.simx.trace import (
    Barrier,
    Compute,
    Load,
    Lock,
    Op,
    PhaseBegin,
    PhaseEnd,
    Store,
    ThreadTrace,
    TraceProgram,
    Unlock,
)

__all__ = ["dump_program", "load_program", "op_to_record", "op_from_record"]


def op_to_record(tid: int, op: Op) -> dict:
    """One op as a JSON-compatible record."""
    if isinstance(op, Compute):
        return {"t": tid, "op": "C", "n": op.instructions}
    if isinstance(op, Load):
        return {"t": tid, "op": "L", "a": op.addr}
    if isinstance(op, Store):
        return {"t": tid, "op": "S", "a": op.addr}
    if isinstance(op, Barrier):
        return {"t": tid, "op": "B", "id": op.barrier_id}
    if isinstance(op, Lock):
        return {"t": tid, "op": "K", "id": op.lock_id}
    if isinstance(op, Unlock):
        return {"t": tid, "op": "U", "id": op.lock_id}
    if isinstance(op, PhaseBegin):
        return {"t": tid, "op": "PB", "p": op.phase}
    if isinstance(op, PhaseEnd):
        return {"t": tid, "op": "PE", "p": op.phase}
    raise TypeError(f"unknown op {op!r}")


def op_from_record(rec: dict) -> tuple[int, Op]:
    """Inverse of :func:`op_to_record`."""
    kind = rec.get("op")
    tid = rec["t"]
    if kind == "C":
        return tid, Compute(rec["n"])
    if kind == "L":
        return tid, Load(rec["a"])
    if kind == "S":
        return tid, Store(rec["a"])
    if kind == "B":
        return tid, Barrier(rec["id"])
    if kind == "K":
        return tid, Lock(rec["id"])
    if kind == "U":
        return tid, Unlock(rec["id"])
    if kind == "PB":
        return tid, PhaseBegin(rec["p"])
    if kind == "PE":
        return tid, PhaseEnd(rec["p"])
    raise ValueError(f"unknown op kind {kind!r} in {rec}")


def dump_program(program: TraceProgram, path: "str | Path") -> Path:
    """Write a trace program to a JSONL file; returns the path.

    Writes each thread's op objects, materialising a columnar trace's
    ops (a trace keeps them, so the program still runs afterwards).
    """
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
            for op in thread:
                fh.write(json.dumps(op_to_record(thread.thread_id, op)) + "\n")
    return p


def load_program(path: "str | Path") -> TraceProgram:
    """Read a trace program back from a JSONL file.

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
        ops_by_thread: dict[int, list[Op]] = {
            t: [] for t in range(header["n_threads"])
        }
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                tid, op = op_from_record(json.loads(line))
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise ValueError(f"{p}:{lineno}: bad op record: {exc!r}") from exc
            if tid not in ops_by_thread:
                raise ValueError(
                    f"{p}: op for thread {tid} outside 0..{header['n_threads'] - 1}"
                )
            ops_by_thread[tid].append(op)
    return TraceProgram(
        name=header["name"],
        threads=[
            ThreadTrace(tid, ops) for tid, ops in sorted(ops_by_thread.items())
        ],
        metadata=header.get("metadata", {}),
    )
