"""Seeded random trace-program generator for the differential harness.

Unlike the hypothesis strategy in ``tests/simx`` this generator is plain
``random.Random``, so the same programs can be replayed outside pytest —
``scripts/run_bench.py --fuzz-iters N`` drives it directly and CI pins
seed matrices to exact programs.

Programs are deadlock-free by construction: every thread shares one
barrier/phase skeleton, lock sections are emitted whole (acquire and
release in the same step, never across a barrier) and never nested.

The ``nested-phases`` mix targets phase attribution rather than traffic:
accesses before any phase (charged to ``(unattributed)``), an ``outer``
phase re-entered every round with inner phases nested in it, and shared
accesses after each inner ``PhaseEnd`` that must charge ``outer`` again.
It has its own builder, so adding it left the other mixes' random draws,
and therefore the pinned seed corpora, unchanged.

Address space (64-byte lines): each thread owns 16 private lines at
``(0x1000 + tid*0x100 + idx) * 64``; 8 lines at ``idx * 64`` are touched
by every thread; false-sharing stores hit distinct bytes of those same
shared lines.  Under the tiny 4-set L1 the differential suite uses, the
private streams collide with resident shared lines often enough to
exercise the eviction-hazard bail-out on every mix.
"""

from __future__ import annotations

import random

from repro.simx import (
    Barrier,
    Compute,
    Load,
    Lock,
    PhaseBegin,
    PhaseEnd,
    Store,
    ThreadTrace,
    TraceProgram,
    Unlock,
)

__all__ = ["MIXES", "generate_program"]

LINE = 64

#: op-mix profiles: weights for (compute, private, shared, reduction,
#: false-sharing) emission
MIXES = ("private", "shared", "reduction", "false-sharing", "mixed", "nested-phases")

_WEIGHTS = {
    "private": (4, 10, 1, 0, 0),
    "shared": (3, 2, 10, 0, 1),
    "reduction": (3, 4, 1, 6, 0),
    "false-sharing": (3, 3, 1, 0, 8),
    "mixed": (4, 4, 3, 2, 2),
    "nested-phases": (2, 3, 5, 2, 1),
}
_KINDS = ("compute", "private", "shared", "reduction", "false-sharing")


def _emit(rng: random.Random, ops: list, tid: int, kind: str) -> None:
    """Append one step of the given kind to a thread's op list."""
    if kind == "compute":
        ops.append(Compute(rng.randrange(0, 400)))
    elif kind == "private":
        addr = (0x1000 + tid * 0x100 + rng.randrange(16)) * LINE
        ops.append(Store(addr) if rng.random() < 0.4 else Load(addr))
    elif kind == "shared":
        addr = rng.randrange(8) * LINE
        ops.append(Store(addr) if rng.random() < 0.4 else Load(addr))
    elif kind == "reduction":
        # a whole critical section on a shared accumulator line
        lock_id = rng.randrange(2)
        addr = rng.randrange(8) * LINE
        ops.append(Lock(lock_id))
        ops.append(Load(addr))
        ops.append(Compute(rng.randrange(1, 80)))
        ops.append(Store(addr))
        ops.append(Unlock(lock_id))
    else:  # false-sharing: distinct bytes of one line, per thread
        addr = rng.randrange(4) * LINE + (tid * 8) % LINE
        ops.append(Store(addr))


def generate_program(
    seed: int, mix: str = "mixed", max_threads: int = 4
) -> TraceProgram:
    """One deterministic trace program for ``(seed, mix)``.

    ``max_threads`` caps the drawn thread count so programs fit the
    target machine (the differential configs have 4 cores).
    """
    if mix not in _WEIGHTS:
        raise ValueError(f"unknown mix {mix!r}; expected one of {MIXES}")
    rng = random.Random((seed << 5) ^ 0xD1FF)
    weights = _WEIGHTS[mix]
    if mix == "nested-phases":
        return _nested_program(rng, weights, f"fuzz-{mix}-{seed}", max_threads)
    n_threads = rng.randint(1, max_threads)
    n_rounds = rng.randint(1, 3)
    per_thread: list[list] = [[] for _ in range(n_threads)]
    bid = 0
    for rnd in range(n_rounds):
        phase = rng.choice(("init", "parallel", "reduction", "merge"))
        use_phase = rng.random() < 0.8
        for tid in range(n_threads):
            ops = per_thread[tid]
            if use_phase:
                ops.append(PhaseBegin(phase))
            for _ in range(rng.randint(0, 14)):
                _emit(rng, ops, tid, rng.choices(_KINDS, weights)[0])
            if use_phase:
                ops.append(PhaseEnd(phase))
        if n_threads > 1 and (rnd < n_rounds - 1 or rng.random() < 0.5):
            for tid in range(n_threads):
                per_thread[tid].append(Barrier(bid))
            bid += 1
    return TraceProgram(
        f"fuzz-{mix}-{seed}",
        [ThreadTrace(tid, ops) for tid, ops in enumerate(per_thread)],
    )


def _steps(rng: random.Random, ops: list, tid: int, weights, lo: int, hi: int) -> None:
    for _ in range(rng.randint(lo, hi)):
        _emit(rng, ops, tid, rng.choices(_KINDS, weights)[0])


def _shared_access(rng: random.Random, ops: list) -> None:
    addr = rng.randrange(8) * LINE
    ops.append(Store(addr) if rng.random() < 0.5 else Load(addr))


def _nested_program(
    rng: random.Random, weights, name: str, max_threads: int
) -> TraceProgram:
    """Rounds of ``outer`` ⊃ inner phases, with unattributed edges.

    Each thread opens with accesses outside any phase; every round
    re-enters ``outer`` and nests one or two inner phases (sometimes a
    second ``outer``) inside it; each inner ``PhaseEnd`` is followed by
    a shared access charged to ``outer``.
    """
    n_threads = rng.randint(1, max_threads)
    n_rounds = rng.randint(2, 3)
    per_thread: list[list] = [[] for _ in range(n_threads)]
    for tid in range(n_threads):
        _shared_access(rng, per_thread[tid])
        _steps(rng, per_thread[tid], tid, weights, 0, 4)
    for rnd in range(n_rounds):
        inners = [
            rng.choice(("init", "merge", "reduction", "outer"))
            for _ in range(rng.randint(1, 2))
        ]
        for tid in range(n_threads):
            ops = per_thread[tid]
            ops.append(PhaseBegin("outer"))
            _steps(rng, ops, tid, weights, 0, 4)
            for inner in inners:
                ops.append(PhaseBegin(inner))
                _steps(rng, ops, tid, weights, 0, 6)
                ops.append(PhaseEnd(inner))
                _shared_access(rng, ops)
                _steps(rng, ops, tid, weights, 0, 3)
            ops.append(PhaseEnd("outer"))
            if rng.random() < 0.5:
                _shared_access(rng, ops)
        if n_threads > 1:
            for tid in range(n_threads):
                per_thread[tid].append(Barrier(rnd))
    return TraceProgram(
        name, [ThreadTrace(tid, ops) for tid, ops in enumerate(per_thread)]
    )
