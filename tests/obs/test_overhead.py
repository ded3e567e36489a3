"""Disabled observability must be free (one branch per call site).

The acceptance bar: with metrics disabled, simulator throughput through
the instrumented ``Machine.run`` stays within 2% of the bare
``Machine._run`` loop (which carries no observability wrapper at all).
Timing comparisons are noisy, so both sides are measured as
best-of-several batches, timed in turn within each round so a load
change on a shared host hits both alike, and the check retries before
failing — a genuine regression fails every round, scheduler noise does
not.
"""

import time
import timeit

from repro import obs
from repro.simx import Machine, MachineConfig
from repro.simx.trace import Compute, Load, Store, ThreadTrace, TraceProgram

LINE = 64


def _program(n_threads=2, n_rounds=150) -> TraceProgram:
    threads = []
    for tid in range(n_threads):
        base = tid * 65536
        ops = []
        for i in range(n_rounds):
            ops.append(Compute(8))
            ops.append(Load(base + (i % 32) * LINE))
            ops.append(Store(base + (i % 32) * LINE))
        threads.append(ThreadTrace(tid, ops))
    return TraceProgram("overhead-probe", threads)


def _best_seconds(fn, repeats=5, number=3) -> float:
    return min(timeit.repeat(fn, repeat=repeats, number=number))


def _interleaved_best_seconds(fns, repeats=5, number=3) -> list:
    """Best-of-``repeats`` batch time of each of ``fns``, one batch of
    each in turn per repeat (the first to go alternates)."""
    best = [float("inf")] * len(fns)
    for r in range(repeats):
        order = range(len(fns)) if r % 2 == 0 else reversed(range(len(fns)))
        for j in order:
            best[j] = min(best[j], timeit.timeit(fns[j], number=number))
    return best


def test_disabled_run_within_2pct_of_uninstrumented_loop():
    assert not obs.enabled()
    prog = _program()
    machine = Machine(MachineConfig(n_cores=4))
    machine.run(prog)  # warm caches/JIT-ish effects out of the measurement

    for attempt in range(4):
        instrumented, bare = _interleaved_best_seconds(
            [lambda: machine.run(prog), lambda: machine._run(prog)]
        )
        if instrumented <= bare * 1.02:
            return
        time.sleep(0.1)  # noisy round (CI neighbours); re-measure
    raise AssertionError(
        f"disabled-metrics run() is {instrumented / bare:.3f}x the bare "
        f"_run() loop (limit 1.02x): the disabled path is not free"
    )


def test_disabled_mutators_do_not_allocate_series():
    """A hot loop of disabled inc/observe must leave the registry empty."""
    c = obs.counter("overhead_probe_total", labels=("k",))
    h = obs.histogram("overhead_probe_seconds")
    for i in range(10_000):
        c.inc(k=str(i % 7))
        h.observe(i * 1e-6)
    assert obs.snapshot() == []


def test_disabled_span_is_two_orders_cheaper_than_enabled():
    """The disabled span() short-circuit must not pay the record cost.

    Compared structurally rather than against wall-clock: the disabled
    path is a single branch; creating + recording a Span is dozens of
    operations.  A 1.0x ratio would mean the short-circuit is broken.
    """
    N = 20_000

    def loop():
        for _ in range(N):
            with obs.span("probe"):
                pass

    disabled = _best_seconds(loop, repeats=3, number=1)
    obs.set_enabled(True)
    try:
        enabled = _best_seconds(loop, repeats=3, number=1)
    finally:
        obs.set_enabled(False)
        obs.RECORDER.clear()
    assert disabled < enabled, (
        f"disabled spans ({disabled:.4f}s/{N}) not cheaper than enabled "
        f"({enabled:.4f}s/{N})"
    )
