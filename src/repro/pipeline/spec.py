"""Declarative experiment specifications.

Every experiment is one :class:`ExperimentSpec`: an id, an *assemble*
function (the classic driver — a pure function from warm caches to an
:class:`~repro.experiments.report.ExperimentReport`), and zero or more
:class:`Stage`\\ s, each able to *declare* the experiment's expensive
work as content-hashed :class:`~repro.engine.units.WorkUnit`\\ s without
running anything.

The split is the engine's contract with the experiments layer:

* **declare** — enumerate every simulator sweep point, trace program
  and hardware execution the experiment will need, as units whose keys
  equal the cache keys the assemble phase will look up;
* **assemble** — run the driver against caches the engine has warmed.
  With every unit resolved up front, assembly performs no simulator or
  hardware work of its own, so it is cheap, deterministic, and
  byte-identical between serial and parallel runs.

Stages take keyword options and, like drivers, different stages accept
different knobs — :meth:`ExperimentSpec.declare_units` filters one
shared option set per stage signature, so ``repro runall --scale 0.1``
can hand the same options to every experiment it runs.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.engine.units import WorkUnit
from repro.experiments.report import ExperimentReport

__all__ = ["Stage", "ExperimentSpec", "accepted_options", "filter_kwargs"]


def accepted_options(fn: Callable) -> "set[str] | None":
    """Keyword names ``fn`` accepts, or None when it takes ``**kwargs``."""
    params = inspect.signature(fn).parameters.values()
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params):
        return None
    return {
        p.name
        for p in params
        if p.kind in (inspect.Parameter.POSITIONAL_OR_KEYWORD,
                      inspect.Parameter.KEYWORD_ONLY)
    }


def filter_kwargs(fn: Callable, options: Mapping[str, object]) -> dict:
    """The subset of ``options`` that ``fn``'s signature accepts."""
    accepted = accepted_options(fn)
    if accepted is None:
        return dict(options)
    return {k: v for k, v in options.items() if k in accepted}


@dataclass(frozen=True)
class Stage:
    """One declarable slice of an experiment's work.

    ``declare`` takes keyword options (a subset of the driver's) and
    returns the stage's work units.  Its defaults must mirror the
    driver's, so declared keys match what assembly will look up.
    """

    name: str
    declare: Callable[..., "list[WorkUnit]"]

    def declare_units(self, **options) -> "list[WorkUnit]":
        return list(self.declare(**filter_kwargs(self.declare, options)))


@dataclass(frozen=True)
class ExperimentSpec:
    """An experiment: declare stages + an assemble function."""

    experiment_id: str
    assemble: Callable[..., ExperimentReport]
    stages: "tuple[Stage, ...]" = ()

    @property
    def declares_units(self) -> bool:
        """Whether this experiment has any declarable work at all."""
        return bool(self.stages)

    def declare_units(self, **options) -> "list[WorkUnit]":
        """Every unit the experiment will need, across all its stages.

        Options a stage does not understand are dropped per stage, so
        one option set can drive a heterogeneous batch of experiments.
        """
        units: "list[WorkUnit]" = []
        for stage in self.stages:
            units.extend(stage.declare_units(**options))
        return units

    def run(self, **options) -> ExperimentReport:
        """Assemble the report (options filtered to the driver's knobs)."""
        return self.assemble(**filter_kwargs(self.assemble, options))
