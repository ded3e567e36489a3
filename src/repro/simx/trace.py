"""Operation traces: the simulator's input language.

A workload compiles each thread's execution into a sequence of operations:

* :class:`Compute` — a burst of ``instructions`` arithmetic/control
  instructions, timed by the core's effective IPC;
* :class:`Load` / :class:`Store` — a data access to a byte address, timed
  through the cache hierarchy and MESI coherence at line granularity;
* :class:`Barrier` — all-thread synchronisation point;
* :class:`Lock` / :class:`Unlock` — mutual exclusion;
* :class:`PhaseBegin` / :class:`PhaseEnd` — instrumentation markers; every
  cycle a thread spends between the markers is attributed to that phase
  (the simulator equivalent of SESC's per-section cycle counters).

A :class:`ThreadTrace` stores one thread's sequence in one form, integer
columns: an ``int8`` kind code per op (:data:`COMPUTE` … :data:`PHASE_END`,
in :data:`OP_TYPES` order), an ``int64`` argument — the instruction count,
byte address, barrier id, lock id or phase-label index — and the tuple of
phase labels.  :meth:`ThreadTrace.from_columns` takes the columns as they
are; ``ThreadTrace(tid, ops)`` lowers any iterable of op objects once, at
construction, and keeps no reference to it.  Both engines read the
columns; :attr:`ThreadTrace.ops` and iteration build op objects on
demand, for tools and tests, and cache nothing, so a held program costs
9 bytes per op.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Op",
    "Compute",
    "Load",
    "Store",
    "Barrier",
    "Lock",
    "Unlock",
    "PhaseBegin",
    "PhaseEnd",
    "ThreadTrace",
    "TraceProgram",
    "OP_TYPES",
    "COMPUTE",
    "LOAD",
    "STORE",
    "BARRIER",
    "LOCK",
    "UNLOCK",
    "PHASE_BEGIN",
    "PHASE_END",
]


@dataclass(frozen=True, slots=True)
class Compute:
    """A burst of ``instructions`` non-memory instructions."""

    instructions: int

    def __post_init__(self) -> None:
        if self.instructions < 0:
            raise ValueError(f"instructions must be >= 0, got {self.instructions}")


@dataclass(frozen=True, slots=True)
class Load:
    """A read of the cache line containing byte address ``addr``."""

    addr: int

    def __post_init__(self) -> None:
        if self.addr < 0:
            raise ValueError(f"addr must be >= 0, got {self.addr}")


@dataclass(frozen=True, slots=True)
class Store:
    """A write to the cache line containing byte address ``addr``."""

    addr: int

    def __post_init__(self) -> None:
        if self.addr < 0:
            raise ValueError(f"addr must be >= 0, got {self.addr}")


@dataclass(frozen=True, slots=True)
class Barrier:
    """A named all-thread barrier; every thread must reach it."""

    barrier_id: int


@dataclass(frozen=True, slots=True)
class Lock:
    """Acquire the named lock (blocks while another thread holds it)."""

    lock_id: int


@dataclass(frozen=True, slots=True)
class Unlock:
    """Release the named lock; must be held by this thread."""

    lock_id: int


@dataclass(frozen=True, slots=True)
class PhaseBegin:
    """Start attributing this thread's cycles to ``phase``."""

    phase: str


@dataclass(frozen=True, slots=True)
class PhaseEnd:
    """Stop attributing this thread's cycles to ``phase``."""

    phase: str


Op = Compute | Load | Store | Barrier | Lock | Unlock | PhaseBegin | PhaseEnd

#: the op classes in kind-code order: ``OP_TYPES[code]`` builds an op
OP_TYPES = (Compute, Load, Store, Barrier, Lock, Unlock, PhaseBegin, PhaseEnd)
#: the columnar form's kind codes
COMPUTE, LOAD, STORE, BARRIER, LOCK, UNLOCK, PHASE_BEGIN, PHASE_END = range(8)

def _int64(values, what: str) -> np.ndarray:
    """``values`` as an int64 array; ValueError unless every value is an
    integer that int64 holds."""
    array = np.asarray(values)
    if array.size and not np.can_cast(array.dtype, np.int64):
        raise ValueError(f"{what} must be int64 integers, got dtype {array.dtype}")
    return array.astype(np.int64)


def _reject(mask: np.ndarray, values: np.ndarray, message: str) -> None:
    """Raise ``ValueError(message)`` naming the first value ``mask`` flags."""
    if mask.any():
        raise ValueError(message.format(values[mask][0]))


def _lower(ops: Iterable[Op]) -> "tuple[np.ndarray, np.ndarray, tuple[str, ...]]":
    """``(kinds, args, labels)`` for an op stream, in one pass.  Raises
    :class:`ValueError` for an object that is not an op and for an
    argument that is not an integer int64 holds."""
    kinds: list[int] = []
    args: list[int] = []
    labels: dict[str, int] = {}
    for op in ops:
        t = type(op)
        if t is Compute:
            kinds.append(COMPUTE)
            args.append(op.instructions)
        elif t is Load or t is Store:
            kinds.append(LOAD if t is Load else STORE)
            args.append(op.addr)
        elif t is Barrier:
            kinds.append(BARRIER)
            args.append(op.barrier_id)
        elif t is Lock or t is Unlock:
            kinds.append(LOCK if t is Lock else UNLOCK)
            args.append(op.lock_id)
        elif t is PhaseBegin or t is PhaseEnd:
            kinds.append(PHASE_BEGIN if t is PhaseBegin else PHASE_END)
            args.append(labels.setdefault(op.phase, len(labels)))
        else:
            raise ValueError(f"unknown op {op!r}")
    return (np.array(kinds, dtype=np.int8), _int64(args, "op arguments"),
            tuple(labels))


class ThreadTrace:
    """One thread's operation sequence, stored as integer columns.

    ``ThreadTrace(tid, ops)`` lowers any iterable of ops at construction
    (a generator is consumed there); :meth:`from_columns` takes the
    columns directly.  Either way the trace owns its columns: changing
    the list or arrays it was built from does not change it.
    """

    __slots__ = ("thread_id", "_columns")

    def __init__(self, thread_id: int, ops: Iterable[Op]):
        self.thread_id = thread_id
        self._columns = _lower(ops)

    @classmethod
    def from_columns(
        cls,
        thread_id: int,
        kinds,
        args,
        labels: Sequence[str] = (),
    ) -> "ThreadTrace":
        """A trace from its columns: ``kinds[j]`` is op ``j``'s kind code
        and ``args[j]`` its argument; a phase marker's argument indexes
        ``labels``.  Raises :class:`ValueError` for what the op
        constructors reject (a negative instruction count or address)
        and for an unknown kind or label index."""
        kinds = _int64(kinds, "kinds")
        args = _int64(args, "args")
        labels = tuple(labels)
        if kinds.ndim != 1 or kinds.shape != args.shape:
            raise ValueError(
                f"kinds and args must be 1-d and equally long, got shapes "
                f"{kinds.shape} and {args.shape}"
            )
        _reject((kinds < COMPUTE) | (kinds > PHASE_END), kinds, "unknown op kind {}")
        kinds = kinds.astype(np.int8)
        if args.size and args.min() < 0:
            negative = args < 0
            _reject(negative & (kinds == COMPUTE), args, "instructions must be >= 0, got {}")
            _reject(negative & ((kinds == LOAD) | (kinds == STORE)), args,
                    "addr must be >= 0, got {}")
        label_ids = args[kinds >= PHASE_BEGIN]
        _reject((label_ids < 0) | (label_ids >= len(labels)), label_ids,
                f"phase label index {{}} outside the {len(labels)} labels")
        trace = cls.__new__(cls)
        trace.thread_id = thread_id
        trace._columns = (kinds, args, labels)
        return trace

    @property
    def ops(self) -> list[Op]:
        """The op objects, built from the columns on every access."""
        return list(self)

    def columns(self) -> "tuple[np.ndarray, np.ndarray, tuple[str, ...]]":
        """``(kinds, args, labels)``: the trace's one stored form."""
        return self._columns

    def __iter__(self) -> Iterator[Op]:
        kinds, args, labels = self._columns
        for k, a in zip(kinds.tolist(), args.tolist()):
            yield OP_TYPES[k](labels[a] if k >= PHASE_BEGIN else a)

    def __repr__(self) -> str:
        return f"ThreadTrace(thread_id={self.thread_id}, n_ops={len(self._columns[0])})"


@dataclass
class TraceProgram:
    """A multithreaded program: one trace per thread, plus metadata.

    ``name`` labels the workload in reports; ``n_threads`` is implied by the
    trace list and validated against thread ids.
    """

    name: str
    threads: Sequence[ThreadTrace]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.threads:
            raise ValueError("a TraceProgram needs at least one thread")
        ids = [t.thread_id for t in self.threads]
        if ids != list(range(len(ids))):
            raise ValueError(
                f"thread ids must be 0..{len(ids) - 1} in order, got {ids}"
            )

    @property
    def n_threads(self) -> int:
        return len(self.threads)
