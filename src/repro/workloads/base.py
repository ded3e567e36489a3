"""Workload phase accounting: the common structure of all three benchmarks.

A workload's execution decomposes into the paper's Fig 1 structure:

* ``init`` — constant serial setup (center initialisation, tree roots);
* ``parallel`` — the data-parallel kernel, partitioned across threads;
* ``reduction`` — the merging phase combining per-thread partials
  (the serial component that *grows* with thread count);
* ``serial`` — the remaining constant serial work (center update,
  convergence test, stop criteria).

Workloads run their numerics with numpy and record a :class:`PhaseWork`
entry per phase per iteration: deterministic instruction and
memory-operation counts derived from the algorithm's loop trip counts.
Downstream consumers convert this accounting into simulator traces
(:mod:`repro.workloads.tracegen`) or modelled wall-clock time
(:mod:`repro.hardware`).

The numerics do not depend on the thread count; only the per-thread split
of the work does.  So :meth:`ClusteringWorkloadBase.execute` runs the
numerics once per *workload identity* (:meth:`~ClusteringWorkloadBase.identity`:
name, knobs, dataset content digest) in a process, as one
:class:`CanonicalRun`, and derives each thread count's phase records from
it.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass, field, fields

import numpy as np

from repro.util.validation import check_positive_int
from repro.workloads.reduction import reduction_cost

__all__ = [
    "PHASE_INIT",
    "PHASE_PARALLEL",
    "PHASE_REDUCTION",
    "PHASE_SERIAL",
    "SERIAL_PHASES",
    "PhaseWork",
    "WorkloadExecution",
    "CanonicalRun",
    "ClusteringWorkloadBase",
    "master_only",
    "reduction_work",
]

PHASE_INIT = "init"
PHASE_PARALLEL = "parallel"
PHASE_REDUCTION = "reduction"
PHASE_SERIAL = "serial"

#: Phases that execute on the master thread while the others wait.
SERIAL_PHASES = (PHASE_INIT, PHASE_REDUCTION, PHASE_SERIAL)


@dataclass(frozen=True)
class PhaseWork:
    """Deterministic work accounting for one phase instance.

    Parameters
    ----------
    phase:
        One of the four phase names.
    per_thread_instructions:
        Arithmetic/control instruction count per thread.  Serial phases
        have nonzero work only for thread 0.
    per_thread_reads / per_thread_writes:
        Memory operations per thread at data granularity (converted to
        cache-line accesses downstream).
    shared_reads:
        Of ``per_thread_reads``, how many target data *written by other
        threads* (coherence-miss candidates — the merging phase's remote
        partial-result reads).
    """

    phase: str
    per_thread_instructions: tuple[int, ...]
    per_thread_reads: tuple[int, ...]
    per_thread_writes: tuple[int, ...]
    shared_reads: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        lengths = {
            len(self.per_thread_instructions),
            len(self.per_thread_reads),
            len(self.per_thread_writes),
        }
        if self.shared_reads:
            lengths.add(len(self.shared_reads))
        if len(lengths) != 1:
            raise ValueError("per-thread arrays must have equal length")
        if self.phase not in (PHASE_INIT, PHASE_PARALLEL, PHASE_REDUCTION, PHASE_SERIAL):
            raise ValueError(f"unknown phase {self.phase!r}")

    @property
    def n_threads(self) -> int:
        return len(self.per_thread_instructions)

    def is_serial(self) -> bool:
        return self.phase in SERIAL_PHASES


@dataclass
class WorkloadExecution:
    """Everything one workload run produced: numerics plus accounting.

    ``phases`` is the ordered list of :class:`PhaseWork` records across all
    iterations; ``outputs`` holds the algorithm's numeric results (centers,
    memberships, group assignments, ...) for correctness checks.
    """

    workload: str
    n_threads: int
    n_iterations: int
    phases: list[PhaseWork] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)

    def add(self, work: PhaseWork) -> None:
        if work.n_threads != self.n_threads:
            raise ValueError(
                f"phase has {work.n_threads} threads, execution has {self.n_threads}"
            )
        self.phases.append(work)


@dataclass(frozen=True)
class CanonicalRun:
    """One workload identity's numerics: what every thread count shares.

    ``outputs`` (its arrays read-only) become every execution's
    ``outputs``; ``state`` is whatever the workload's per-thread-count
    accounting reads.  Neither may reference the dataset, so the memo
    holding the run keeps no dataset alive.
    """

    n_iterations: int
    outputs: dict
    state: object = None


#: identity key -> CanonicalRun, least recently used first
_NUMERICS: "OrderedDict[str, CanonicalRun]" = OrderedDict()
#: identities kept per process; a cold ``repro runall`` uses 17
_NUMERICS_MAX = 32


class ClusteringWorkloadBase(ABC):
    """Common machinery: identity, the numerics memo, thread partitioning.

    A subclass is a dataclass whose compared fields are all knobs (plus an
    optional ``dataset``), and implements :meth:`_work_items`,
    :meth:`_canonical_run` and :meth:`_account`.
    """

    #: workload name used in reports ("kmeans" / "fuzzy" / "hop")
    name: str = "workload"

    def identity(self) -> dict:
        """Everything the results depend on: the name, every knob, and the
        dataset's label, shapes and content digest.

        Every compared dataclass field is a knob, so a new knob joins the
        identity (and the unit keys built from it) without a list to
        update.
        """
        desc: dict = {"name": self.name}
        for f in fields(self):
            if f.compare:
                value = getattr(self, f.name)
                desc[f.name] = value.identity() if f.name == "dataset" else value
        return desc

    def execute(self, n_threads: int) -> WorkloadExecution:
        """The execution record on ``n_threads`` logical threads: the
        canonical run's ``n_iterations`` and ``outputs``, with this thread
        count's per-phase work accounting."""
        check_positive_int(n_threads, "n_threads")
        n, noun = self._work_items()
        if n_threads > n:
            raise ValueError(f"more threads ({n_threads}) than {noun} ({n})")
        run = self.canonical_run()
        execution = WorkloadExecution(
            workload=self.name, n_threads=n_threads,
            n_iterations=run.n_iterations, outputs=dict(run.outputs),
        )
        self._account(run, execution)
        return execution

    def canonical_run(self) -> CanonicalRun:
        """This identity's numerics, computed once per process (a small
        LRU memo keyed by the class and :meth:`identity`)."""
        key = type(self).__qualname__ + json.dumps(self.identity(), sort_keys=True)
        run = _NUMERICS.get(key)
        if run is not None:
            _NUMERICS.move_to_end(key)
            return run
        run = self._canonical_run()
        for value in run.outputs.values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        _NUMERICS[key] = run
        if len(_NUMERICS) > _NUMERICS_MAX:
            _NUMERICS.popitem(last=False)
        return run

    @abstractmethod
    def _work_items(self) -> "tuple[int, str]":
        """``(count, noun)`` of the items partitioned across threads."""

    @abstractmethod
    def _canonical_run(self) -> CanonicalRun:
        """Run the numerics; nothing here may depend on the thread count."""

    @abstractmethod
    def _account(self, run: CanonicalRun, execution: WorkloadExecution) -> None:
        """Add ``execution.n_threads``'s phase records to ``execution``."""

    @staticmethod
    def partition(n_items: int, n_threads: int) -> list[slice]:
        """Contiguous, balanced partition of ``range(n_items)``.

        The first ``n_items % n_threads`` threads get one extra item, as in
        MineBench's static scheduling.
        """
        check_positive_int(n_threads, "n_threads")
        base, extra = divmod(n_items, n_threads)
        slices = []
        start = 0
        for t in range(n_threads):
            size = base + (1 if t < extra else 0)
            slices.append(slice(start, start + size))
            start += size
        return slices

    @staticmethod
    def per_thread_counts(n_items: int, n_threads: int) -> np.ndarray:
        """Item count per thread under :meth:`partition`."""
        return np.array(
            [s.stop - s.start for s in ClusteringWorkloadBase.partition(n_items, n_threads)],
            dtype=np.int64,
        )


def master_only(value: int, n_threads: int) -> "tuple[int, ...]":
    """A per-thread tuple with ``value`` on the master and 0 elsewhere."""
    return (int(value),) + (0,) * (n_threads - 1)


def reduction_work(
    strategy: str,
    sizes: "tuple[int, ...]",
    n_threads: int,
    combine_instr: int,
    master_writes: int,
) -> PhaseWork:
    """The merging phase that reduces, per thread, one partial of each
    size in ``sizes`` with ``strategy``.

    The master walks the critical path; the other threads carry the
    distributed share (per thread, see
    :class:`~repro.workloads.reduction.ReductionCost`).  Under the serial
    strategy the master reads every remote partial; otherwise the
    messages spread evenly.
    """
    costs = [reduction_cost(strategy, x, n_threads) for x in sizes]
    serial_ops = sum(c.serial_element_ops for c in costs)
    parallel_ops = sum(c.parallel_element_ops for c in costs)
    messages = sum(c.messages for c in costs)
    red_instr = [parallel_ops * combine_instr] * n_threads
    red_reads = [parallel_ops] * n_threads
    if serial_ops:
        red_instr[0] = serial_ops * combine_instr
        red_reads[0] = serial_ops
    if strategy == "serial":
        shared = master_only(messages, n_threads)
    else:
        shared = (messages // n_threads,) * n_threads
    return PhaseWork(
        phase=PHASE_REDUCTION,
        per_thread_instructions=tuple(red_instr),
        per_thread_reads=tuple(red_reads),
        per_thread_writes=master_only(master_writes, n_threads),
        shared_reads=shared,
    )
