"""Workload phase accounting: the common structure of all three benchmarks.

A workload's execution decomposes into the paper's Fig 1 structure:

* ``init`` — constant serial setup (center initialisation, tree roots);
* ``parallel`` — the data-parallel kernel, partitioned across threads;
* ``reduction`` — the merging phase combining per-thread partials
  (the serial component that *grows* with thread count);
* ``serial`` — the remaining constant serial work (center update,
  convergence test, stop criteria).

Workloads run their numerics with numpy and simultaneously record a
:class:`PhaseWork` entry per phase per iteration: deterministic instruction
and memory-operation counts derived from the algorithm's actual loop trip
counts.  Downstream consumers convert this accounting into simulator traces
(:mod:`repro.workloads.tracegen`) or modelled wall-clock time
(:mod:`repro.hardware`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.util.validation import check_positive_int

__all__ = [
    "PHASE_INIT",
    "PHASE_PARALLEL",
    "PHASE_REDUCTION",
    "PHASE_SERIAL",
    "SERIAL_PHASES",
    "PhaseWork",
    "WorkloadExecution",
    "ClusteringWorkloadBase",
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


class ClusteringWorkloadBase(ABC):
    """Common machinery: thread partitioning and execution scaffolding."""

    #: workload name used in reports ("kmeans" / "fuzzy" / "hop")
    name: str = "workload"

    @abstractmethod
    def execute(self, n_threads: int) -> WorkloadExecution:
        """Run the algorithm partitioned over ``n_threads`` and return the
        execution record (numerics + per-phase work accounting)."""

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
