"""Experiment registry: id → :class:`~repro.pipeline.ExperimentSpec`.

Every experiment module exports its spec(s) — ``SPEC`` for a single
experiment, ``SPECS`` for a family — and this module collects them into
one table from the modules in ``_MODULES``.  The classic driver map
(``EXPERIMENTS``) and every declaration (:func:`declare_units`) are
*derived* from the specs, so adding an experiment is one
``ExperimentSpec`` in its own module plus its module in ``_MODULES``;
:func:`run_experiments` is the one runner every interface goes through.
"""

from __future__ import annotations

import functools
import inspect
import time
from typing import Callable, Iterable, Iterator, Mapping

from repro import obs
from repro.experiments import ablations, conclusions, extensions, falsesharing
from repro.experiments import locked_reduction, mix_study, scheduler_study
from repro.experiments import fig1_fig6, fig2, fig3, fig4, fig5, fig7
from repro.experiments import table1, table2, table3, table4
from repro.experiments.report import ExperimentReport
from repro.pipeline import ExperimentSpec, resolve_units

__all__ = [
    "SPECS",
    "EXPERIMENTS",
    "get_spec",
    "get_experiment",
    "run_experiment",
    "run_experiments",
    "validate_options",
    "filter_options",
    "describe_experiment",
    "listing",
    "declare_units",
]

#: the paper-order module list the registry collects specs from
_MODULES = (
    table1, table2, table3, table4,
    fig1_fig6, fig2, fig3, fig4, fig5, fig7,
    ablations, extensions, falsesharing, locked_reduction, mix_study,
    scheduler_study, conclusions,
)


def _collect_specs() -> "dict[str, ExperimentSpec]":
    specs: "dict[str, ExperimentSpec]" = {}
    for module in _MODULES:
        found = getattr(module, "SPECS", None)
        if found is None:
            found = (module.SPEC,)
        for spec in found:
            if spec.experiment_id in specs:  # pragma: no cover - import-time guard
                raise ValueError(f"duplicate experiment id {spec.experiment_id!r}")
            specs[spec.experiment_id] = spec
    return specs


SPECS: Mapping[str, ExperimentSpec] = _collect_specs()


def get_spec(experiment_id: str) -> ExperimentSpec:
    """Look up a spec by id; raises with the list of known ids."""
    if experiment_id not in SPECS:
        raise ValueError(
            f"unknown experiment {experiment_id!r}; known: {', '.join(sorted(SPECS))}"
        )
    return SPECS[experiment_id]


def get_experiment(experiment_id: str) -> Callable[..., ExperimentReport]:
    """Look up an experiment's options → report callable by id; raises
    with the list of known ids."""
    return EXPERIMENTS[get_spec(experiment_id).experiment_id]


def validate_options(experiment_id: str, options: Mapping[str, object]) -> None:
    """Raise ``TypeError`` naming any option the driver does not accept.

    Drivers take different knobs (``scale`` means nothing to ``fig4``),
    so blind ``**options`` forwarding would surface as an unhelpful
    low-level ``TypeError`` from the driver call; this checks the
    driver's options up front and names the offender and the accepted
    set instead.
    """
    accepted = get_spec(experiment_id).options
    unknown = sorted(o for o in options if o not in accepted)
    if unknown:
        raise TypeError(
            f"experiment {experiment_id!r} got unknown option(s) "
            f"{', '.join(repr(o) for o in unknown)}; accepted: "
            f"{', '.join(sorted(accepted)) or '(none)'}"
        )


def filter_options(experiment_id: str,
                   options: Mapping[str, object]) -> dict:
    """The subset of ``options`` the experiment's driver accepts.

    The forgiving counterpart of :func:`validate_options`, for callers
    that apply one option set across many experiments (``repro runall
    --scale 0.1``, resume manifests): each driver receives only the
    knobs it understands.
    """
    return get_spec(experiment_id).filter_options(options)


_EXPERIMENT_SECONDS = obs.histogram(
    "experiment_seconds", "wall-clock seconds per experiment driver",
    labels=("experiment",),
)


def run_experiments(
    requests: "Iterable[tuple[str, Mapping[str, object]]]",
) -> Iterator[ExperimentReport]:
    """Run ``(experiment_id, options)`` requests, yielding the reports in
    request order.  Every experiment is declared once and the union of
    the declared units settles in one :func:`~repro.pipeline.resolve_units`
    batch.  The declaring drivers assemble right after it, so their units
    (which carry workload datasets) and the payloads are dropped before
    any other driver runs; a declaring driver's error is raised in turn.
    """
    planned = [(get_spec(eid), options) for eid, options in requests]
    for spec, options in planned:
        validate_options(spec.experiment_id, options)
    ready = _assemble_declaring(planned)
    for index, (spec, options) in enumerate(planned):
        report = ready.pop(index) if index in ready else _assemble(spec, options, [], {})
        if isinstance(report, Exception):
            raise report
        yield report


def _assemble_declaring(planned: list) -> "dict[int, ExperimentReport | Exception]":
    """Declare, resolve and assemble the declaring experiments of
    ``planned`` by index; an error ends the pass and takes its place."""
    declared = [(index, spec, options, spec.declare_units(**options))
                for index, (spec, options) in enumerate(planned) if spec.declares_units]
    payloads = resolve_units([u for *_, units in declared for u in units])
    ready = {}
    declared.reverse()
    while declared:  # popped, so each experiment's units go once it has assembled
        index, spec, options, units = declared.pop()
        try:
            ready[index] = _assemble(spec, options, units, payloads)
        except Exception as exc:
            ready[index] = exc
            break
    return ready


def _assemble(spec: ExperimentSpec, options: Mapping[str, object],
              units: list, payloads: "Mapping[str, dict]") -> ExperimentReport:
    if not obs.enabled():
        return spec.run(units, payloads, **options)
    t0 = time.perf_counter()
    with obs.span("experiment.run", experiment=spec.experiment_id):
        report = spec.run(units, payloads, **options)
    _EXPERIMENT_SECONDS.observe(time.perf_counter() - t0, experiment=spec.experiment_id)
    return report


def run_experiment(experiment_id: str, **options) -> ExperimentReport:
    """Run one experiment by id (options validated against the driver)."""
    return next(run_experiments([(experiment_id, options)]))


#: id → options → report (the classic driver map, derived from SPECS)
EXPERIMENTS: Mapping[str, Callable[..., ExperimentReport]] = {
    eid: functools.partial(run_experiment, eid) for eid in SPECS
}


def describe_experiment(experiment_id: str) -> str:
    """One-line description of an experiment (its driver's docstring)."""
    doc = inspect.getdoc(get_spec(experiment_id).assemble)
    return doc.splitlines()[0].strip() if doc else ""


def listing() -> list:
    """One entry per experiment, in id order: its id, description and
    the options its driver accepts — ``repro list --json`` and serve's
    ``GET /v1/experiments`` both list this."""
    return [{"id": eid,
             "description": describe_experiment(eid),
             "options": sorted(SPECS[eid].options)}
            for eid in sorted(SPECS)]


def declare_units(experiment_id: str, **options) -> list:
    """The experiment's declared work as units (``[]`` if none).

    Options its driver does not take are dropped rather than rejected:
    callers pass one option set for a whole batch of experiments (e.g.
    ``repro runall --scale 0.1``) and each experiment picks out what
    applies to it.
    """
    return get_spec(experiment_id).declare_units(**options)
