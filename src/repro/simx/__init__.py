"""simx — a discrete-event chip-multiprocessor simulator.

The paper extracts its application parameters (Table II) with the SESC
simulator.  ``simx`` is the from-scratch substitute: configurable cores with
an issue-width timing model, private L1 caches, a shared L2 with MESI
coherence, a bus or 2D-mesh interconnect, barrier/lock synchronisation, and
per-phase cycle accounting.

Workloads do not run as machine code; they compile to *operation traces*
(compute bursts, cache-line loads/stores, synchronisation, phase markers —
see :mod:`repro.simx.trace`).  This preserves exactly what the paper
measures — how serial/reduction/parallel phase times change with core
count — without simulating a MIPS pipeline.

Typical use::

    from repro.simx import MachineConfig, Machine
    machine = Machine(MachineConfig.baseline(n_cores=8))
    result = machine.run(program)          # program: TraceProgram
    result.phase_cycles("reduction")
"""

from repro.simx.batch import supports_batch_path
from repro.simx.config import CacheConfig, CoreConfig, MachineConfig
from repro.simx.machine import Machine, SimulationResult
from repro.simx.sched import (
    AcmpScheduler,
    PinnedScheduler,
    RoundRobinScheduler,
    Scheduler,
    build_scheduler,
)
from repro.simx.stats import PhaseStats, SchedStats
from repro.simx.trace import (
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

__all__ = [
    "MachineConfig",
    "CoreConfig",
    "CacheConfig",
    "Machine",
    "SimulationResult",
    "PhaseStats",
    "TraceProgram",
    "ThreadTrace",
    "Compute",
    "Load",
    "Store",
    "Barrier",
    "Lock",
    "Unlock",
    "PhaseBegin",
    "PhaseEnd",
    "SchedStats",
    "Scheduler",
    "PinnedScheduler",
    "RoundRobinScheduler",
    "AcmpScheduler",
    "build_scheduler",
    "supports_batch_path",
]
