"""Experiment drivers: one module per table/figure of the paper's evaluation.

Every driver exposes ``run(**options) -> ExperimentReport``; the registry
maps experiment ids ("table2", "fig4", ...) to drivers so the CLI and the
benchmark harness share one entry point.

============  ========================================================
id            reproduces
============  ========================================================
table1        baseline machine configuration
table2        measured application parameters (simulator sweep)
table3        application classes for the design-space study
table4        dataset-sensitivity study
fig2          scalability, serial growth, hardware validation, accuracy
fig3          speedup predictions to 256 cores (Amdahl vs extended)
fig4          symmetric-CMP design sweeps (4 panels)
fig5          asymmetric-CMP design sweeps (8 panels)
fig7          communication-aware model (2 panels)
ablations     beyond-the-paper design-choice probes
============  ========================================================
"""

from repro.experiments.report import ExperimentReport

__all__ = ["ExperimentReport", "EXPERIMENTS", "get_experiment", "run_experiment"]

_REGISTRY_NAMES = ("EXPERIMENTS", "get_experiment", "run_experiment")


def __getattr__(name: str):
    # The registry imports every driver and the drivers import
    # repro.pipeline, which itself imports this package's store and report
    # modules.  Loading the registry on first use keeps either package
    # importable first.
    if name in _REGISTRY_NAMES:
        from repro.experiments import registry

        return getattr(registry, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
