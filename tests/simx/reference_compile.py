"""A frozen copy of the object-walking batch compiler, as a test-only oracle.

:func:`repro.simx.batch.compile_batch` lowers a program from its integer
columns with numpy.  This module keeps the compiler exactly as it stood
before that rewrite: it walks each thread's op objects, finds shared
lines with a dict, and keeps every segment's ops in ``_Seg.ops``.
``tests/simx/test_compile_oracle.py`` demands that both lower the same
programs to equal segments, sync entries and counts.

Do not optimise or "fix" this file: its value is that it does not change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.simx.trace import (
    Compute,
    Load,
    Store,
    TraceProgram,
)

__all__ = ["compile_batch", "BatchProgram"]

#: vectorise the compute-cycle sum only past this run length — below it the
#: numpy call costs more than the scalar loop.
_VEC_MIN = 8

_COMPUTE, _LOAD, _STORE = 0, 1, 2


class _Seg:
    """A maximal run of private ops in structure-of-arrays form.

    ``kinds[j]`` / ``args[j]`` drive the hot loop without isinstance
    dispatch; ``ops`` is kept only to rebuild the tail after a hazard
    bail.  ``lead`` counts the compute ops before the first load/store
    (all of them in a pure-compute segment).  Pure-compute segments carry
    their instruction counts as a numpy array (``carr``) so the whole run
    prices as one vectorised ceil-sum.
    """

    __slots__ = ("kinds", "args", "ops", "lead", "carr", "total_instr")

    def __init__(self, kinds: tuple, args: tuple, ops: tuple):
        self.kinds = kinds
        self.args = args
        self.ops = ops
        self.lead = next((j for j, k in enumerate(kinds) if k != _COMPUTE), len(kinds))
        if self.lead == len(args) >= _VEC_MIN:
            self.carr = np.asarray(args, dtype=np.float64)
            self.total_instr = int(sum(args))
        else:
            self.carr = None
            self.total_instr = 0


@dataclass(frozen=True)
class BatchProgram:
    """A program lowered for batch execution.

    ``thread_entries[tid]`` mixes :class:`_Seg` runs with phase markers
    and sync ops; ``shared_lines`` is the eviction bail-out set.  For the
    ``n_bursts``/``n_fused_ops`` accounting a multi-op segment counts as
    one burst.
    """

    thread_entries: tuple
    shared_lines: frozenset
    n_bursts: int
    n_fused_ops: int


def compile_batch(program: TraceProgram, line_size: int) -> BatchProgram:
    """Lower a program into per-thread segment/sync streams."""
    op_lists = [list(t.ops) for t in program.threads]

    # accessor analysis: who touches each line?
    owner: dict[int, int] = {}
    _SHARED = -1
    for tid, ops in enumerate(op_lists):
        for op in ops:
            t = type(op)
            if t is Load or t is Store:
                line = op.addr // line_size
                prev = owner.setdefault(line, tid)
                if prev != tid:
                    owner[line] = _SHARED
    shared_lines = frozenset(line for line, o in owner.items() if o == _SHARED)

    n_bursts = 0
    n_fused = 0
    entries: list[tuple] = []
    for ops in op_lists:
        out: list = []
        kinds: list = []
        args: list = []
        run: list = []

        def flush() -> None:
            nonlocal n_bursts, n_fused, kinds, args, run
            if run:
                out.append(_Seg(tuple(kinds), tuple(args), tuple(run)))
                if len(run) >= 2:
                    n_bursts += 1
                    n_fused += len(run)
            kinds, args, run = [], [], []

        for op in ops:
            t = type(op)
            if t is Compute:
                kinds.append(_COMPUTE)
                args.append(op.instructions)
                run.append(op)
            elif (t is Load or t is Store) and op.addr // line_size not in shared_lines:
                kinds.append(_LOAD if t is Load else _STORE)
                args.append(op.addr)
                run.append(op)
            else:
                flush()
                out.append(op)
        flush()
        entries.append(tuple(out))

    return BatchProgram(
        thread_entries=tuple(entries),
        shared_lines=shared_lines,
        n_bursts=n_bursts,
        n_fused_ops=n_fused,
    )
