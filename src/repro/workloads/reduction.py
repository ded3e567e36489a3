"""Reduction strategies for per-thread partial results.

Algorithm 1 of the paper is the *serial* (linear) strategy: the master
accumulates one partial per thread.  The paper also analyses a *tree*
(logarithmic) strategy and — in Section V.E — a *privatised parallel*
strategy where each thread combines its slice of the elements across all
partials.

All three compute the identical sum; the difference is the cost shape,
which each strategy reports as a :class:`ReductionCost` (serial combine
steps, parallel combine steps per thread, messages exchanged) so the
instrumentation and trace generation charge the right phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "ReductionCost",
    "serial_reduce",
    "tree_reduce",
    "parallel_reduce",
    "reduction_cost",
    "STRATEGIES",
    "resolve_strategy",
]


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


def _check(partials: Sequence[np.ndarray]) -> list[np.ndarray]:
    if len(partials) == 0:
        raise ValueError("need at least one partial result")
    arrays = [np.asarray(a, dtype=np.float64) for a in partials]
    shape = arrays[0].shape
    for a in arrays[1:]:
        if a.shape != shape:
            raise ValueError(f"partial shapes differ: {a.shape} vs {shape}")
    return arrays


def serial_reduce(partials: Sequence[np.ndarray]) -> tuple[np.ndarray, ReductionCost]:
    """Master-accumulates-all (Algorithm 1): linear in the thread count.

    The master walks the partials in thread order and adds each into the
    accumulator (``for i in clusters: for j in threads: new += partial``) —
    ``x·p`` element combines, all serial, which is exactly the model's
    ``grow_linear(nc) = nc`` convention (one full pass even at p = 1);
    ``(p−1)·x`` element transfers reach the master from remote threads.
    """
    arrays = _check(partials)
    total = arrays[0].copy()
    for a in arrays[1:]:
        total += a
    return total, reduction_cost("serial", _size(arrays), len(arrays))


def tree_reduce(partials: Sequence[np.ndarray]) -> tuple[np.ndarray, ReductionCost]:
    """Binary combining tree: ``ceil(log2 p)`` rounds.

    Round k halves the live partials; the critical path executes one
    ``x``-element combine per round — ``x·max(1, ceil(log2 p))`` serial
    combines (a single pass even at p = 1, matching ``grow_log(1) = 1``) —
    while the total work stays ``x·(p−1)`` spread over threads.
    """
    arrays = _check(partials)
    live = [a.copy() for a in arrays]
    while len(live) > 1:
        nxt = [live[i] + live[i + 1] for i in range(0, len(live) - 1, 2)]
        if len(live) % 2 == 1:
            nxt.append(live[-1])
        live = nxt
    return live[0], reduction_cost("tree", _size(arrays), len(arrays))


def parallel_reduce(
    partials: Sequence[np.ndarray], broadcast_back: bool = True
) -> tuple[np.ndarray, ReductionCost]:
    """Privatised parallel reduction (Section V.E).

    Each of the ``p`` threads owns ``x/p`` of the elements and sums that
    slice across all ``p`` partials — per-thread work ``(x/p)·p = x``,
    constant in the thread count ("computation does not scale"), with no
    serial combines.  The
    communication is the expensive part: every thread sends its slice of
    every partial to the slice owner, ``(p−1)·x`` transfers, doubled when
    the combined result is broadcast back.
    """
    arrays = _check(partials)
    p = len(arrays)
    flat = np.stack([a.ravel() for a in arrays])  # (p, x)
    total_flat = np.zeros(flat.shape[1], dtype=np.float64)
    # slice ownership: thread t owns elements [t::p] (cyclic, balanced)
    for t in range(p):
        total_flat[t::p] = flat[:, t::p].sum(axis=0)
    total = total_flat.reshape(arrays[0].shape)
    return total, reduction_cost("parallel", _size(arrays), p, broadcast_back)


def reduction_cost(
    strategy: str, x: int, p: int, broadcast_back: bool = True
) -> ReductionCost:
    """What ``strategy`` costs to reduce ``p`` partials of ``x`` elements.

    The cost depends on the shapes only, never on the values, so the
    per-thread-count accounting prices a reduction without performing it.
    ``broadcast_back`` applies to the parallel strategy (see
    :func:`parallel_reduce`).
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


def _size(arrays: "list[np.ndarray]") -> int:
    """Elements per partial."""
    return int(np.prod(arrays[0].shape)) if arrays[0].shape else 1


STRATEGIES = {
    "serial": serial_reduce,
    "tree": tree_reduce,
    "parallel": parallel_reduce,
}


def resolve_strategy(name: str):
    """Look up a reduction strategy by name."""
    if name not in STRATEGIES:
        raise ValueError(f"unknown strategy {name!r}; expected one of {sorted(STRATEGIES)}")
    return STRATEGIES[name]
