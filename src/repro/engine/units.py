"""Work units — the engine's currency — and the executor registry.

A :class:`WorkUnit` is a *content-keyed*, picklable description of one
independent piece of computation:

* ``key`` is the unit's identity, a SHA-256 content hash of everything
  the result depends on (producers reuse
  :meth:`repro.experiments.store.SweepStore.key_for`, so an engine key
  and the on-disk sweep-cache key are the *same* string).  Two units
  with equal keys are the same computation; the scheduler executes at
  most one of them and the result can satisfy any cache tier.
* ``kind`` names the executor that knows how to run the unit.  Executors
  are plain functions ``spec -> payload`` registered per kind; the
  payload must be a JSON-serialisable dict so it can round-trip through
  the worker protocol and the disk store.
* ``spec`` is the executor's argument tuple.  It crosses the process
  boundary by pickling, so everything in it must be picklable.

Executor resolution is lazy: worker processes look a kind up at
execution time, importing :mod:`repro.pipeline.builders` (which defines
and registers the built-in kinds) on first miss.  Extra kinds are
registered by importing the module that defines them: a local worker
process imports, by module name, the defining module of every extra
executor registered in the coordinator when it starts
(:func:`executor_modules`).  An executor defined in ``__main__`` (a
script or ``python -c``) therefore cannot run on a worker; define it in
an importable module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

__all__ = ["WorkUnit", "register_executor", "resolve_executor", "execute",
           "executor_modules"]

#: kind -> executor(spec) -> JSON-serialisable payload dict
_EXECUTORS: dict[str, Callable[[tuple], dict]] = {}


@dataclass(frozen=True, eq=False)
class WorkUnit:
    """One schedulable computation (identity semantics; dedupe by ``key``).

    Every executor is deterministic, so a payload computed once may be
    persisted and serve any later run that declares the same ``key``.
    """

    kind: str
    key: str
    spec: tuple
    label: str = ""

    def describe(self) -> str:
        """Short human-readable handle for logs and events."""
        return self.label or f"{self.kind}:{self.key[:12]}"


def register_executor(kind: str, fn: Callable[[tuple], dict]) -> None:
    """Register (or replace) the executor for ``kind``."""
    _EXECUTORS[kind] = fn


def executor_modules() -> "list[str]":
    """Modules a fresh worker process must import to know every executor
    registered here.  The built-ins load on demand, and ``__main__`` is
    not importable by name, so neither is listed."""
    modules = {getattr(fn, "__module__", None) for fn in _EXECUTORS.values()}
    return sorted(m for m in modules
                  if m and m not in ("__main__", "repro.pipeline.builders"))


def resolve_executor(kind: str) -> Callable[[tuple], dict]:
    """The executor registered for ``kind`` (loads built-ins on demand)."""
    fn = _EXECUTORS.get(kind)
    if fn is None:
        from repro.pipeline import builders  # noqa: F401  (registers built-ins)

        fn = _EXECUTORS.get(kind)
    if fn is None:
        raise KeyError(
            f"no executor registered for work-unit kind {kind!r}; "
            f"known: {', '.join(sorted(_EXECUTORS)) or '(none)'}"
        )
    return fn


def execute(kind: str, spec: tuple) -> dict:
    """Run one unit in the current process (workers and the serial pool)."""
    return resolve_executor(kind)(spec)
