"""Declarative experiment pipeline: declare work units, assemble reports.

The pipeline layer sits between the experiments and the execution engine
(see ``docs/architecture.md``).  Experiments describe themselves as
:class:`ExperimentSpec`\\ s — an optional *declare* function lists
content-hashed work units over any expensive backend (simulator sweeps
and trace programs, hardware-model executions), and an *assemble*
function builds the report from those units and the payloads that
resolved them.  :func:`resolve_units` is the one execution substrate all
of them share: run journal -> disk store -> engine pool, in that order,
for every unit kind (:func:`sweep_breakdowns` decodes resolved sweeps;
:func:`simulate_breakdowns` is the one-sweep shorthand).
"""

from repro.pipeline.builders import (
    HARDWARE_MODEL,
    SIM_PROGRAM,
    SWEEP_POINT,
    breakdown_from_payload,
    hardware_model_units,
    sim_point_unit,
    sim_program_unit,
    sim_sweep_units,
)
from repro.pipeline.runtime import (
    cache_get,
    cache_put,
    get_disk_store,
    resolve_units,
    set_disk_store,
    simulate_breakdowns,
    sweep_breakdowns,
)
from repro.pipeline.spec import ExperimentSpec

__all__ = [
    "ExperimentSpec",
    "SWEEP_POINT",
    "SIM_PROGRAM",
    "HARDWARE_MODEL",
    "sim_sweep_units",
    "sim_point_unit",
    "sim_program_unit",
    "hardware_model_units",
    "breakdown_from_payload",
    "resolve_units",
    "simulate_breakdowns",
    "sweep_breakdowns",
    "cache_get",
    "cache_put",
    "set_disk_store",
    "get_disk_store",
]
