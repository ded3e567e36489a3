"""Synchronisation under preemption: liveness and deadlock.

The reference machine raises :class:`DeadlockError` when no thread can
run.  Under a time-multiplexing scheduler that check is subtler: a
preempted lock-holder is *queued*, not blocked, and must never be
mistaken for a deadlock; a genuine cyclic wait still must be."""

from dataclasses import replace

import pytest

from repro.simx import (
    Barrier,
    Compute,
    Lock,
    Machine,
    MachineConfig,
    ThreadTrace,
    TraceProgram,
    Unlock,
)
from repro.simx.machine import DeadlockError


def rr_config(cores, **overrides):
    return replace(
        MachineConfig.baseline(n_cores=cores), scheduler="round-robin",
        **overrides,
    )


def test_preempted_lock_holder_is_not_a_deadlock():
    # one core, tiny quantum: the holder is guaranteed to lose the core
    # mid-critical-section while another thread is blocked on the lock
    holder = ThreadTrace(0, [Lock(0), *[Compute(50)] * 40, Unlock(0)])
    waiter = ThreadTrace(1, [Compute(10), Lock(0), Compute(50), Unlock(0)])
    spin = ThreadTrace(2, [Compute(50)] * 40)
    res = Machine(rr_config(1, quantum=100)).run(
        TraceProgram("pi", [holder, waiter, spin])
    )
    assert res.sched.preemptions > 0  # the hazard actually occurred
    assert res.total_cycles > 0  # and the run still completed


def test_genuine_deadlock_is_still_detected():
    # classic ABBA on two cores: both threads block, nothing is queued
    t0 = ThreadTrace(0, [Lock(0), Compute(100), Lock(1)])
    t1 = ThreadTrace(1, [Lock(1), Compute(100), Lock(0)])
    with pytest.raises(DeadlockError, match="no runnable threads"):
        Machine(rr_config(2)).run(TraceProgram("abba", [t0, t1]))


def test_genuine_deadlock_detected_while_oversubscribed():
    # the ABBA pair shares one core with a finite spinner: after the
    # spinner drains, the queue is empty and the cycle must be reported
    t0 = ThreadTrace(0, [Lock(0), Compute(100), Lock(1)])
    t1 = ThreadTrace(1, [Lock(1), Compute(100), Lock(0)])
    spin = ThreadTrace(2, [Compute(50)] * 10)
    with pytest.raises(DeadlockError):
        Machine(rr_config(2, quantum=50)).run(
            TraceProgram("abba+spin", [t0, t1, spin])
        )


def test_barrier_mismatch_deadlock_under_round_robin():
    t0 = ThreadTrace(0, [Compute(10), Barrier(0)])
    t1 = ThreadTrace(1, [Compute(10)])  # never arrives
    with pytest.raises(DeadlockError):
        Machine(rr_config(2)).run(TraceProgram("lonely", [t0, t1]))

