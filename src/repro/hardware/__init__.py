"""Hardware-validation substrate (the paper's 2-socket Xeon substitute).

The paper validates the growing-serial-section observation on a real
two-socket Xeon E5520 machine (8 cores).  This package provides:

* :mod:`repro.hardware.machine_model` — a deterministic analytical model of
  that machine (NUMA sockets, cache-to-cache transfer costs, barrier
  overheads) that converts a workload's phase accounting into wall-clock
  times.  Default backend: reproducible everywhere, including CI.
* :mod:`repro.hardware.executor` — runs a workload on the machine model
  and returns its per-phase breakdown at each thread count, the
  hardware-side counterpart of a simulator sweep.
"""

from repro.hardware.executor import execute_workload
from repro.hardware.machine_model import HardwareMachineModel, XEON_E5520

__all__ = [
    "HardwareMachineModel",
    "XEON_E5520",
    "execute_workload",
]
