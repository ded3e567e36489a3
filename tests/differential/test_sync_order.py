"""Directed traces for the batch engine's global sync order.

Parked threads wait on a ``(clock, tid)`` heap and only the threads an op
wakes are re-advanced, so two things must hold exactly as in the
reference scheduler: ties on the clock break to the lowest tid, and a
program that stops making progress raises the same error, naming every
blocked thread.
"""

import ast
import re
from dataclasses import replace

import pytest

from repro.simx import (
    Barrier,
    Compute,
    Load,
    Lock,
    Machine,
    MachineConfig,
    PhaseBegin,
    PhaseEnd,
    Store,
    Unlock,
)
from repro.simx.machine import DeadlockError
from tests.differential.harness import LINE, assert_identical, program_of, run_two, tiny_config

DEADLOCKS = {
    "lock-order-inversion": (
        [
            [Lock(0), Compute(50), Lock(1), Unlock(1), Unlock(0)],
            [Lock(1), Compute(50), Lock(0), Unlock(0), Unlock(1)],
            [Compute(10)],
        ],
        {0, 1},
    ),
    "barrier-missing-a-thread": (
        [[Compute(5), Barrier(0)], [Barrier(0)], [Compute(5)]],
        {0, 1},
    ),
    "never-released-lock": (
        [
            [Lock(0), Barrier(0), Unlock(0)],
            [Compute(100), Lock(0), Unlock(0), Barrier(0)],
        ],
        {0, 1},
    ),
}


def blocked_tids(exc: DeadlockError) -> set:
    """The thread ids a deadlock message lists as blocked."""
    match = re.search(r"blocked: (\{.*?\})", str(exc))
    assert match, str(exc)
    return set(ast.literal_eval(match.group(1)))


@pytest.mark.parametrize("name", sorted(DEADLOCKS))
def test_deadlock_parity(name):
    threads, blocked = DEADLOCKS[name]
    program = program_of(threads)
    cfg = tiny_config()
    raised = {}
    for batch in (False, True):
        with pytest.raises(Exception) as info:
            Machine(replace(cfg, batch_path=batch)).run(program)
        raised[batch] = info.value
    assert type(raised[True]) is type(raised[False]) is DeadlockError
    assert blocked_tids(raised[True]) == blocked_tids(raised[False]) == blocked


def tied_program(n_threads: int = 16, rounds: int = 12):
    """Every thread runs the same lock- and barrier-heavy trace, so every
    dispatch breaks a ``(clock, tid)`` tie."""
    ops = [PhaseBegin("setup"), Compute(16), PhaseEnd("setup"), PhaseBegin("merge")]
    for r in range(rounds):
        acc = (8 + r % 3) * LINE
        ops += [Lock(r % 2), Load(acc), Compute(8), Store(acc), Unlock(r % 2),
                Compute(4), Store(64 * LINE + 4 * (r % 4))]
        if r % 3 == 2:
            ops.append(Barrier(r % 2))
    ops += [PhaseEnd("merge"), Barrier(7)]
    return program_of([list(ops) for _ in range(n_threads)])


@pytest.mark.parametrize("interconnect", ["bus", "mesh"])
def test_tie_heavy_program_is_identical(interconnect):
    ref, bat = run_two(MachineConfig.baseline(16, interconnect), tied_program())
    assert ref.engine == "reference" and bat.engine == "batch"
    assert_identical(bat, ref)
    assert bat.phase_stats.wait_cycles("merge") > 0  # the locks did contend
