"""Declarative experiment specifications.

Every experiment is one :class:`ExperimentSpec`: an id, an *assemble*
function (the classic driver — a pure function from warm caches to an
:class:`~repro.experiments.report.ExperimentReport`), and an optional
*declare* function that lists the experiment's expensive work as
content-hashed :class:`~repro.engine.units.WorkUnit`\\ s without running
anything.

The split is the engine's contract with the experiments layer:

* **declare** — enumerate every simulator sweep point, trace program
  and hardware execution the experiment will need, as units whose keys
  equal the cache keys the assemble phase will look up;
* **assemble** — run the driver against caches the engine has warmed.
  With every unit resolved up front, assembly performs no simulator or
  hardware work of its own, so it is cheap, deterministic, and
  byte-identical between serial and parallel runs.

A declare function takes a subset of its driver's parameters, by name
and without defaults: :meth:`ExperimentSpec.declare_units` binds the
options to the *driver's* signature, applies the driver's defaults and
passes ``declare`` the values it names.  The driver resolves the units
its declare function returns, so the two phases make one decision in
one place.  Options a driver does not take are dropped, so
``repro runall --scale 0.1`` can hand the same options to every
experiment it runs.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.engine.units import WorkUnit
from repro.experiments.report import ExperimentReport

__all__ = ["ExperimentSpec", "accepted_options", "filter_kwargs"]


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
class ExperimentSpec:
    """An experiment: an assemble function and, when it has expensive
    work, the declare function that lists it."""

    experiment_id: str
    assemble: Callable[..., ExperimentReport]
    declare: "Callable[..., list[WorkUnit]] | None" = None

    @property
    def declares_units(self) -> bool:
        """Whether this experiment has any declarable work at all."""
        return self.declare is not None

    def declare_units(self, **options) -> "list[WorkUnit]":
        """Every unit the experiment will need at ``options``.

        The options are bound to the driver's signature with its
        defaults applied; ``declare`` receives the parameters it names.
        """
        if self.declare is None:
            return []
        bound = inspect.signature(self.assemble).bind(
            **filter_kwargs(self.assemble, options))
        bound.apply_defaults()
        wanted = inspect.signature(self.declare).parameters
        return list(self.declare(**{name: bound.arguments[name] for name in wanted}))

    def run(self, **options) -> ExperimentReport:
        """Assemble the report (options filtered to the driver's knobs)."""
        return self.assemble(**filter_kwargs(self.assemble, options))
