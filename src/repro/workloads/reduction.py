"""Reduction strategies for per-thread partial results.

Algorithm 1 of the paper is the *serial* (linear) strategy: the master
accumulates one partial per thread.  The paper also analyses a *tree*
(logarithmic) strategy and — in Section V.E — a *privatised parallel*
strategy where each thread combines its slice of the elements across all
partials.

All three compute the identical sum; the difference is the cost shape.
:func:`reduction_cost` prices each strategy as a :class:`ReductionCost`
(serial combine steps, parallel combine steps per thread, messages
exchanged) so the instrumentation and trace generation charge the right
phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ReductionCost",
    "reduction_cost",
    "resolve_strategy",
]

_STRATEGIES = ("serial", "tree", "parallel")


@dataclass(frozen=True)
class ReductionCost:
    """Cost accounting for one reduction of ``x`` elements over ``p``
    partials.

    ``serial_element_ops`` — element combines executed on the critical
    (serial) path, i.e. by the master; ``parallel_element_ops`` — element
    combines *per non-master thread* that run concurrently with (or
    alongside) the critical path; ``messages`` — partial-result transfers
    between threads (each of ``x`` elements counted once per transfer).
    """

    strategy: str
    x: int
    p: int
    serial_element_ops: int
    parallel_element_ops: int
    messages: int


def reduction_cost(
    strategy: str, x: int, p: int, broadcast_back: bool = True
) -> ReductionCost:
    """What ``strategy`` costs to reduce ``p`` partials of ``x`` elements.

    The cost depends on the shapes only, never on the values, so the
    per-thread-count accounting prices a reduction without performing it.
    ``broadcast_back`` applies to the parallel strategy.

    * serial — master-accumulates-all (Algorithm 1): ``x·p`` serial
      combines, the model's ``grow_linear(nc) = nc`` (one full pass even
      at p = 1), and ``(p−1)·x`` transfers to the master;
    * tree — a binary combining tree of ``ceil(log2 p)`` rounds: the
      master's chain is ``x`` combines per round (a single pass at
      p = 1, matching ``grow_log(1) = 1``), the rest of the ``x·(p−1)``
      combines spread over the other threads;
    * parallel — thread t sums its ``x/p`` slice across all ``p``
      partials: ``(x/p)·p = x`` combines per thread, constant in the
      thread count, none serial, and ``(p−1)·x`` transfers, doubled when
      the result is broadcast back.
    """
    resolve_strategy(strategy)
    if strategy == "serial":
        serial, per_thread, messages = x * p, 0, x * (p - 1)
    elif strategy == "tree":
        rounds = max(1, math.ceil(math.log2(p))) if p > 1 else 1
        # total combines x·(p−1), one message each; the master's chain is
        # the critical path (x per round); the rest spreads over the p−1
        # other threads
        off_critical = max(0, x * (p - 1) - x * rounds)
        serial = x * rounds
        per_thread = math.ceil(off_critical / (p - 1)) if p > 1 else 0
        messages = x * (p - 1)
    else:
        serial = 0
        per_thread = (x // p + (1 if x % p else 0)) * p
        messages = x * (p - 1) * (2 if broadcast_back else 1)
    return ReductionCost(
        strategy=strategy, x=x, p=p,
        serial_element_ops=serial,
        parallel_element_ops=per_thread,
        messages=messages,
    )


def resolve_strategy(name: str) -> str:
    """Validate a reduction strategy name and return it."""
    if name not in _STRATEGIES:
        raise ValueError(f"unknown strategy {name!r}; expected one of {sorted(_STRATEGIES)}")
    return name
