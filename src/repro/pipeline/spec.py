"""Declarative experiment specifications.

Every experiment is one :class:`ExperimentSpec`: an id, an *assemble*
function (the driver — a pure function to an
:class:`~repro.experiments.report.ExperimentReport`), and an optional
*declare* function that lists the experiment's expensive work as
content-hashed :class:`~repro.engine.units.WorkUnit`\\ s without running
anything.

The split is the engine's contract with the experiments layer:

* **declare** — enumerate every simulator sweep point, trace program
  and hardware execution the experiment will need;
* **assemble** — build the report from ``(units, payloads, **options)``:
  the declare function's list and each unit key's result.  Assembly
  performs no simulator or hardware work of its own, so it is cheap,
  deterministic, and byte-identical between serial and parallel runs.

A driver's options are exactly the ones some interface passes
(``scale``, ``thread_counts``, ``n``, and ``mem_scale`` for Table II and
Fig 2), each with a default; every other setting of an experiment is a
module constant its driver and declare function both read.  A declare
function takes a subset of its driver's options, by name and without
defaults: :meth:`ExperimentSpec.declare_units` applies the driver's
defaults and passes ``declare`` the values it names.  Each unit is
declared once, by :func:`repro.experiments.registry.run_experiments`,
which resolves it and hands it to :meth:`ExperimentSpec.run`.  Options
a driver does not take are dropped, so ``repro runall --scale 0.1`` can
hand the same options to every experiment it runs.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping

from repro.engine.units import WorkUnit
from repro.experiments.report import ExperimentReport

__all__ = ["ExperimentSpec"]


@dataclass(frozen=True)
class ExperimentSpec:
    """An experiment: an assemble function and, when it has expensive
    work, the declare function that lists it."""

    experiment_id: str
    #: ``(**options)``, or ``(units, payloads, **options)`` with a declare
    assemble: Callable[..., ExperimentReport]
    declare: "Callable[..., list[WorkUnit]] | None" = None
    #: the driver's options, each mapped to its default (read once)
    options: "Mapping[str, object]" = field(init=False, repr=False, compare=False)
    #: the driver options ``declare`` takes, in its parameter order
    _declared: "tuple[str, ...]" = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        params = list(inspect.signature(self.assemble).parameters.values())
        if self.declare is not None:
            params = params[2:]  # units, payloads
        object.__setattr__(self, "options", MappingProxyType(
            {p.name: p.default for p in params}))
        object.__setattr__(self, "_declared", tuple(
            inspect.signature(self.declare).parameters) if self.declare else ())

    @property
    def declares_units(self) -> bool:
        """Whether this experiment has any declarable work at all."""
        return self.declare is not None

    def filter_options(self, options: Mapping[str, object]) -> dict:
        """The subset of ``options`` the driver takes."""
        return {k: v for k, v in options.items() if k in self.options}

    def declare_units(self, **options) -> "list[WorkUnit]":
        """Every unit the experiment will need at ``options``, with the
        driver's defaults for the options ``declare`` names but
        ``options`` leaves out."""
        if self.declare is None:
            return []
        return list(self.declare(**{
            name: options.get(name, self.options[name]) for name in self._declared}))

    def run(self, units: "list[WorkUnit]", payloads: "Mapping[str, dict]",
            **options) -> ExperimentReport:
        """Assemble the report from ``units`` (``declare_units(**options)``,
        ``[]`` without a declare) and the ``payloads`` that resolved them."""
        options = self.filter_options(options)
        if self.declare is None:
            return self.assemble(**options)
        return self.assemble(units, payloads, **options)
