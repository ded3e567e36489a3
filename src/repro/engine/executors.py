"""Built-in work-unit executors.

Imported lazily by :func:`repro.engine.units.resolve_executor` — in the
parent on the serial path, or inside a worker process on first miss —
so worker startup does not pay for the experiments stack until a unit
actually needs it.  Executors must be pure functions of their spec and
return a JSON-serialisable dict (the payload crosses the worker
protocol as JSON and may be persisted in the sweep store).
"""

from __future__ import annotations

from repro.engine.units import register_executor

__all__ = [
    "SWEEP_POINT",
    "SIM_PROGRAM",
    "HARDWARE_MODEL",
    "HARDWARE_PROCESS",
    "MODEL_EVAL",
    "MODEL_EVAL_GRID",
]

#: one simulator run: (workload, n_threads, mem_scale, machine-config)
SWEEP_POINT = "sweep-point"
#: one simulator run of a hand-built trace: (builder-ref, kwargs, config)
SIM_PROGRAM = "sim-program"
#: one machine-model execution: (workload, n_threads, hardware-model)
HARDWARE_MODEL = "hardware-model"
#: one wall-clock execution on the host: (workload, n_threads)
HARDWARE_PROCESS = "hardware-process"
#: one model-layer evaluation: (function-ref, kwargs)
MODEL_EVAL = "model-eval"
#: one vectorized model evaluation over a whole grid: (function-ref, kwargs)
MODEL_EVAL_GRID = "model-eval-grid"


def _run_sweep_point(spec: tuple) -> dict:
    from repro.pipeline import builders

    return builders.execute_sweep_point(spec)


def _run_sim_program(spec: tuple) -> dict:
    from repro.pipeline import builders

    return builders.execute_sim_program(spec)


def _run_hardware_model(spec: tuple) -> dict:
    from repro.pipeline import builders

    return builders.execute_hardware_model(spec)


def _run_hardware_process(spec: tuple) -> dict:
    from repro.pipeline import builders

    return builders.execute_hardware_process(spec)


def _run_model_eval(spec: tuple) -> dict:
    from repro.pipeline import builders

    return builders.execute_model_eval(spec)


def _run_model_eval_grid(spec: tuple) -> dict:
    from repro.pipeline import builders

    return builders.execute_model_eval_grid(spec)


register_executor(SWEEP_POINT, _run_sweep_point)
register_executor(SIM_PROGRAM, _run_sim_program)
register_executor(HARDWARE_MODEL, _run_hardware_model)
register_executor(HARDWARE_PROCESS, _run_hardware_process)
register_executor(MODEL_EVAL, _run_model_eval)
register_executor(MODEL_EVAL_GRID, _run_model_eval_grid)
