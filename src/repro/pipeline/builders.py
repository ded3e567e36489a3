"""The work-unit kinds: their builders and their executors.

Every expensive backend an experiment can touch is one unit kind, and
this module is the one place each kind is named, built and executed:

``sweep-point``
    One simulator run of a workload's own execution trace at one thread
    count, measured per phase (:func:`sim_sweep_units`; resolve and
    decode a whole sweep with
    :func:`~repro.pipeline.runtime.simulate_breakdowns`).
``sim-program``
    One simulator run of a *hand-built* trace program (false-sharing
    layouts, locked-vs-privatised reductions).  The spec names the
    program builder by reference, so the unit pickles as data.
``hardware-model``
    One deterministic hardware-model execution
    (:func:`repro.hardware.executor.model_breakdown`).

Every kind is deterministic, so every payload persists in the disk store.
Every builder hashes a canonical description of everything the payload
depends on into the unit key, so engine dedup identity, journal identity
and the disk-cache key coincide by construction.

The module registers each kind's ``execute_*`` function at import.
:func:`repro.engine.units.resolve_executor` imports it on the first
unit of a kind it does not know, so a worker process loads the
simulator only when it runs its first unit.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import asdict
from typing import Callable, Iterable

from repro.engine.units import WorkUnit, register_executor
from repro.experiments.store import SweepStore
from repro.hardware.machine_model import XEON_E5520, HardwareMachineModel
from repro.simx import MachineConfig
from repro.workloads.instrument import PhaseBreakdown

__all__ = [
    "SWEEP_POINT",
    "SIM_PROGRAM",
    "HARDWARE_MODEL",
    "sim_sweep_units",
    "sim_point_unit",
    "sim_program_unit",
    "hardware_model_units",
    "breakdown_to_payload",
    "breakdown_from_payload",
    "execute_sweep_point",
    "execute_sim_program",
    "execute_hardware_model",
]

SWEEP_POINT = "sweep-point"
SIM_PROGRAM = "sim-program"
HARDWARE_MODEL = "hardware-model"

#: bump whenever simulator *timing semantics* change, so persisted sweep
#: results from older code can never satisfy a lookup.
_SIM_VERSION = 1

#: bump when :func:`repro.hardware.executor.model_breakdown`'s pricing
#: semantics change, so persisted hardware-model results can never
#: satisfy a lookup from older code.
_HW_MODEL_VERSION = 1


def _resolve_ref(ref: str) -> Callable:
    """Import ``"package.module:function"`` back into the callable."""
    module, _, name = ref.partition(":")
    fn = getattr(importlib.import_module(module), name, None)
    if fn is None:
        raise LookupError(f"cannot resolve unit function reference {ref!r}")
    return fn


def func_ref(fn: Callable) -> str:
    """The picklable ``module:name`` reference for a module-level function."""
    return f"{fn.__module__}:{fn.__qualname__}"


_BREAKDOWN_FIELDS = ("n_threads", "total", "init", "parallel", "reduction", "serial")

#: kinds whose payload is a :class:`PhaseBreakdown`; a cached one that
#: does not decode is a miss, not a crash at assemble time
BREAKDOWN_KINDS = frozenset({SWEEP_POINT, HARDWARE_MODEL})


def breakdown_to_payload(b: PhaseBreakdown) -> dict:
    return {f: getattr(b, f) for f in _BREAKDOWN_FIELDS}


def breakdown_from_payload(payload: dict) -> PhaseBreakdown:
    """Rebuild a phase breakdown from a unit payload; ``ValueError`` on a
    malformed one."""
    try:
        return PhaseBreakdown(
            n_threads=int(payload["n_threads"]),
            **{f: float(payload[f]) for f in _BREAKDOWN_FIELDS[1:]},
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed breakdown payload: {payload!r}") from exc


@functools.lru_cache(maxsize=64)
def _config_dict(config) -> dict:
    """``asdict`` of a frozen (hashable) machine description, computed
    once per distinct configuration; callers only serialise it."""
    return asdict(config)


# ── simulator sweeps ──────────────────────────────────────────────────────


def sim_point_unit(workload, p: int, mem_scale: int, config) -> WorkUnit:
    """One sweep point: ``workload`` on ``p`` threads of ``config``.

    The key is :meth:`SweepStore.key_for` over everything the result
    depends on — workload identity, thread count, ``mem_scale``, the full
    :class:`~repro.simx.MachineConfig` and :data:`_SIM_VERSION` — so the
    engine's dedup identity and the disk-cache key coincide by
    construction, and any configuration change is a different unit.
    """
    key = SweepStore.key_for({
        "sim_version": _SIM_VERSION,
        "workload": workload.identity(),
        "threads": p,
        "mem_scale": mem_scale,
        "machine": _config_dict(config),
    })
    return WorkUnit(
        kind=SWEEP_POINT, key=key, spec=(workload, p, mem_scale, config),
        label=f"{workload.name}@p={p}",
    )


def sim_sweep_units(
    workload,
    thread_counts: Iterable[int] = (1, 2, 4, 8, 16),
    n_cores: int = 16,
    mem_scale: int = 2,
    config=None,
) -> "list[WorkUnit]":
    """One sweep point per thread count; ``config`` defaults to
    ``MachineConfig.baseline`` with ``n_cores`` cores."""
    if config is None:
        config = MachineConfig.baseline(n_cores=n_cores)
    return [sim_point_unit(workload, p, mem_scale, config) for p in thread_counts]


def execute_sweep_point(spec: tuple) -> dict:
    """Run one sweep point on the simulator and distill its per-phase
    breakdown."""
    from repro.simx import Machine
    from repro.workloads.instrument import breakdown_from_simulation
    from repro.workloads.tracegen import program_from_execution

    workload, p, mem_scale, config = spec
    prog = program_from_execution(workload.execute(p), mem_scale=mem_scale)
    return breakdown_to_payload(breakdown_from_simulation(Machine(config).run(prog)))


# ── hand-built trace programs ─────────────────────────────────────────────


def sim_program_unit(builder: Callable, kwargs: dict, config,
                     label: str = "") -> WorkUnit:
    """One simulator run of ``builder(**kwargs)`` on ``config``.

    ``builder`` must be a module-level function returning a
    :class:`~repro.simx.TraceProgram`; it crosses the process boundary by
    reference, its kwargs as plain data.
    """
    ref = func_ref(builder)
    key = SweepStore.key_for({
        "kind": SIM_PROGRAM,
        "sim_version": _SIM_VERSION,
        "builder": ref,
        "kwargs": dict(sorted(kwargs.items())),
        "machine": _config_dict(config),
    })
    return WorkUnit(
        kind=SIM_PROGRAM,
        key=key,
        spec=(ref, dict(kwargs), config),
        label=label or ref.rsplit(":", 1)[-1],
    )


def execute_sim_program(spec: tuple) -> dict:
    """Run one trace program and distill the stats experiments read."""
    from repro.simx import Machine

    ref, kwargs, config = spec
    res = Machine(config).run(_resolve_ref(ref)(**kwargs))
    return {
        "total_cycles": int(res.total_cycles),
        "invalidations": int(res.coherence.invalidations),
        "cache_to_cache": int(res.coherence.cache_to_cache),
        "parallel_wait_cycles": int(res.phase_stats.wait_cycles("parallel")),
        "reduction_cycles": int(res.phase_cycles("reduction")),
        "reduction_wait_cycles": int(res.phase_stats.wait_cycles("reduction")),
        "reduction_span_cycles": int(res.phase_wall_cycles("reduction")),
        # dispatch accounting (all zero under the pinned scheduler)
        "preemptions": int(res.sched.preemptions),
        "migrations": int(res.sched.migrations),
        "involuntary_wait_cycles": int(res.sched.involuntary_wait_cycles),
    }


# ── hardware executions ───────────────────────────────────────────────────


def hardware_model_units(
    workload,
    thread_counts: Iterable[int],
    model: HardwareMachineModel = XEON_E5520,
) -> "list[WorkUnit]":
    """Deterministic machine-model executions, one unit per thread count."""
    units = []
    for p in thread_counts:
        key = SweepStore.key_for({
            "kind": HARDWARE_MODEL,
            "hw_model_version": _HW_MODEL_VERSION,
            "workload": workload.identity(),
            "threads": int(p),
            "model": _config_dict(model),
        })
        units.append(WorkUnit(
            kind=HARDWARE_MODEL, key=key, spec=(workload, int(p), model),
            label=f"hw-model:{workload.name}@p={p}",
        ))
    return units


def execute_hardware_model(spec: tuple) -> dict:
    from repro.hardware.executor import model_breakdown

    workload, p, model = spec
    return breakdown_to_payload(model_breakdown(workload, p, model))


register_executor(SWEEP_POINT, execute_sweep_point)
register_executor(SIM_PROGRAM, execute_sim_program)
register_executor(HARDWARE_MODEL, execute_hardware_model)
