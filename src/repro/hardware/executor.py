"""Phase-timed workload execution on the modelled hardware.

The workload's phase accounting is priced by a
:class:`~repro.hardware.machine_model.HardwareMachineModel`, so every
breakdown is deterministic: the same workload and thread count give the
same times on any host.  This is what Fig 2(c) uses.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.hardware.machine_model import XEON_E5520, HardwareMachineModel
from repro.workloads.base import (
    PHASE_INIT,
    PHASE_PARALLEL,
    PHASE_REDUCTION,
    PHASE_SERIAL,
    ClusteringWorkloadBase,
)
from repro.workloads.instrument import PhaseBreakdown

__all__ = ["execute_workload", "model_breakdown"]


def model_breakdown(
    workload: ClusteringWorkloadBase,
    n_threads: int,
    model: HardwareMachineModel = XEON_E5520,
) -> PhaseBreakdown:
    """Run the workload and price its phases with the machine model."""
    if n_threads > model.n_cores:
        raise ValueError(
            f"{n_threads} threads exceed the modelled machine's {model.n_cores} cores"
        )
    execution = workload.execute(n_threads)
    totals = {PHASE_INIT: 0.0, PHASE_PARALLEL: 0.0, PHASE_REDUCTION: 0.0, PHASE_SERIAL: 0.0}
    wall = 0.0
    for work in execution.phases:
        t = model.phase_wall_time_ns(work)
        wall += t
        if work.is_serial():
            # serial phases: the master's busy time is the quantity the
            # paper's extraction uses (the barrier share goes to parallel
            # overhead, not the serial fraction)
            totals[work.phase] += model.thread_time_ns(work, 0)
        else:
            totals[work.phase] += t
    return PhaseBreakdown(
        n_threads=n_threads,
        total=wall,
        init=totals[PHASE_INIT],
        parallel=totals[PHASE_PARALLEL],
        reduction=totals[PHASE_REDUCTION],
        serial=totals[PHASE_SERIAL],
    )


def execute_workload(
    workload: ClusteringWorkloadBase,
    thread_counts: Iterable[int],
    model: HardwareMachineModel = XEON_E5520,
) -> Mapping[int, PhaseBreakdown]:
    """Modelled phase breakdowns per thread count.

    This is the hardware-side equivalent of sweeping the simulator; feed
    the result to :func:`repro.workloads.instrument.extract_parameters` or
    :func:`~repro.workloads.instrument.serial_growth_curve`.
    """
    return {p: model_breakdown(workload, p, model) for p in thread_counts}
