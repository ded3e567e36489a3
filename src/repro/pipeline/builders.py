"""Backend-tagged work-unit builders.

PR 2's engine knew exactly one unit kind — the simulator sweep point.
This module generalises unit construction over every expensive backend
an experiment can touch:

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
``hardware-process``
    One wall-clock run on the actual host.  Inherently nondeterministic,
    so the unit is **not** disk-cacheable: it still dedupes and journals
    within a run, but never outlives one.
``model-eval``
    One expensive model-layer evaluation (e.g. a grid point of the
    conclusions sweep), named by function reference.  Not disk-cacheable
    either: analytic results depend on unversioned model code.
``model-eval-grid``
    One *vectorized* model evaluation over a whole parameter grid (the
    :mod:`repro.core.gridkernels` path): a single unit replaces a fan of
    per-point ``model-eval`` units — e.g. the conclusions experiment's
    48-point sweep is one numpy call.  Numpy arrays in the payload are
    lowered to plain lists (float64 round-trips exactly through JSON),
    so grid payloads journal and resume like any other unit.

Every builder hashes a canonical description of everything the payload
depends on into the unit key, so engine dedup identity, journal identity
and (where applicable) the disk-cache key coincide by construction.
"""

from __future__ import annotations

import hashlib
import importlib
from dataclasses import asdict
from typing import Callable, Iterable

import numpy as np

from repro.engine.units import WorkUnit
from repro.experiments.store import SweepStore
from repro.hardware.machine_model import XEON_E5520, HardwareMachineModel
from repro.simx import MachineConfig
from repro.workloads.instrument import PhaseBreakdown

__all__ = [
    "SWEEP_POINT",
    "SIM_PROGRAM",
    "HARDWARE_MODEL",
    "HARDWARE_PROCESS",
    "MODEL_EVAL",
    "MODEL_EVAL_GRID",
    "sim_sweep_units",
    "sim_point_unit",
    "sim_program_unit",
    "hardware_units",
    "hardware_model_units",
    "hardware_process_units",
    "model_eval_unit",
    "model_eval_grid_unit",
    "workload_descriptor",
    "breakdown_to_payload",
    "breakdown_from_payload",
    "execute_sweep_point",
    "execute_sim_program",
    "execute_hardware_model",
    "execute_hardware_process",
    "execute_model_eval",
    "execute_model_eval_grid",
]

SWEEP_POINT = "sweep-point"
SIM_PROGRAM = "sim-program"
HARDWARE_MODEL = "hardware-model"
HARDWARE_PROCESS = "hardware-process"
MODEL_EVAL = "model-eval"
MODEL_EVAL_GRID = "model-eval-grid"

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
BREAKDOWN_KINDS = frozenset({SWEEP_POINT, HARDWARE_MODEL, HARDWARE_PROCESS})


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


# ── workload identity ─────────────────────────────────────────────────────


def _dataset_descriptor(ds) -> dict:
    """Full identity of a dataset: label, shape, and a content digest.

    The digest covers the actual array bytes, so two datasets that differ
    only in their generator seed (same label, same shape) still key
    differently — without it, Table IV's dim/center/base variants (equal
    N, equal name) would silently share one cache entry.
    """
    digest = hashlib.sha256()
    shape: dict = {}
    for field in ("points", "positions", "masses"):
        arr = getattr(ds, field, None)
        if arr is not None:
            digest.update(np.ascontiguousarray(arr).tobytes())
            shape[field] = list(np.asarray(arr).shape)
    for field in ("n_centers", "n_groups_hint"):
        v = getattr(ds, field, None)
        if v is not None:
            shape[field] = int(v)
    return {
        "label": getattr(ds, "label", ""),
        "shape": shape,
        "digest": digest.hexdigest(),
    }


#: workload knobs that change simulation results and so belong in the key
_WORKLOAD_KNOBS = (
    "n_items", "n_bins", "seed", "max_iterations", "tolerance",
    "n_neighbors", "reduction_strategy",
)


def workload_descriptor(workload) -> dict:
    """Everything that identifies a workload for caching purposes: its
    name, its algorithmic knobs, and the exact dataset content."""
    desc: dict = {"name": workload.name}
    ds = getattr(workload, "dataset", None)
    if ds is not None:
        desc["dataset"] = _dataset_descriptor(ds)
    for knob in _WORKLOAD_KNOBS:
        v = getattr(workload, knob, None)
        if v is not None:
            desc[knob] = v
    return desc


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
        "workload": workload_descriptor(workload),
        "threads": p,
        "mem_scale": mem_scale,
        "machine": asdict(config),
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
        "machine": asdict(config),
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
            "workload": workload_descriptor(workload),
            "threads": int(p),
            "model": asdict(model),
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


def hardware_process_units(workload, thread_counts: Iterable[int]) -> "list[WorkUnit]":
    """Wall-clock runs on the actual host — journaled, never disk-cached."""
    units = []
    for p in thread_counts:
        key = SweepStore.key_for({
            "kind": HARDWARE_PROCESS,
            "workload": workload_descriptor(workload),
            "threads": int(p),
        })
        units.append(WorkUnit(
            kind=HARDWARE_PROCESS, key=key, spec=(workload, int(p)),
            label=f"hw-process:{workload.name}@p={p}", cacheable=False,
        ))
    return units


def execute_hardware_process(spec: tuple) -> dict:
    from repro.hardware.executor import process_breakdown

    workload, p = spec
    return breakdown_to_payload(process_breakdown(workload, p))


def hardware_units(
    workload,
    thread_counts: Iterable[int],
    backend: str = "model",
    model: HardwareMachineModel = XEON_E5520,
) -> "list[WorkUnit]":
    """The hardware-side sweep on either backend (cf.
    :func:`repro.hardware.executor.execute_workload`)."""
    if backend == "model":
        return hardware_model_units(workload, thread_counts, model)
    if backend == "process":
        return hardware_process_units(workload, thread_counts)
    raise ValueError(f"backend must be 'model' or 'process', got {backend!r}")


# ── expensive model-layer evaluations ─────────────────────────────────────


def model_eval_unit(fn: Callable, kwargs: dict, label: str = "") -> WorkUnit:
    """One model-layer evaluation of ``fn(**kwargs)``.

    ``fn`` must be a module-level function returning a JSON-serialisable
    dict.  Results depend on unversioned model code, so the unit dedupes
    and journals but is never persisted in the disk store.
    """
    ref = func_ref(fn)
    key = SweepStore.key_for({
        "kind": MODEL_EVAL,
        "fn": ref,
        "kwargs": dict(sorted(kwargs.items())),
    })
    return WorkUnit(
        kind=MODEL_EVAL, key=key, spec=(ref, dict(kwargs)),
        label=label or ref.rsplit(":", 1)[-1], cacheable=False,
    )


def execute_model_eval(spec: tuple) -> dict:
    ref, kwargs = spec
    payload = _resolve_ref(ref)(**kwargs)
    if not isinstance(payload, dict):
        raise TypeError(
            f"model-eval function {ref} must return a dict payload, "
            f"got {type(payload).__name__}"
        )
    return payload


def model_eval_grid_unit(fn: Callable, kwargs: dict, label: str = "") -> WorkUnit:
    """One *vectorized* model evaluation over a whole parameter grid.

    ``fn`` must be a module-level function whose kwargs are plain data
    (floats, ints, strings, lists of floats) and whose return value is a
    dict of numpy arrays / nested dicts / scalars — the executor lowers
    arrays to lists so the payload journals as JSON.  One grid unit
    subsumes what would otherwise be a fan of per-point ``model-eval``
    units; like them it dedupes and journals but never hits the disk
    store (analytic results depend on unversioned model code).
    """
    ref = func_ref(fn)
    key = SweepStore.key_for({
        "kind": MODEL_EVAL_GRID,
        "fn": ref,
        "kwargs": dict(sorted(kwargs.items())),
    })
    return WorkUnit(
        kind=MODEL_EVAL_GRID, key=key, spec=(ref, dict(kwargs)),
        label=label or ref.rsplit(":", 1)[-1], cacheable=False,
    )


def _plainify(value):
    """Lower numpy containers/scalars to JSON-clean python equivalents.

    float64 → float is exact (same IEEE-754 double), so grid payloads
    survive the journal byte-identically to a fresh evaluation.
    """
    import numpy as np

    if isinstance(value, dict):
        return {k: _plainify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plainify(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    return value


def execute_model_eval_grid(spec: tuple) -> dict:
    ref, kwargs = spec
    payload = _resolve_ref(ref)(**kwargs)
    if not isinstance(payload, dict):
        raise TypeError(
            f"model-eval-grid function {ref} must return a dict payload, "
            f"got {type(payload).__name__}"
        )
    return _plainify(payload)
