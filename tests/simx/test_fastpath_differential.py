"""Differential proof: the lockstep batch engine is cycle-exact.

Every test runs the same trace program through two machines that differ
only in ``batch_path`` and asserts the *complete* observable output is
identical: total and per-thread cycles, per-phase busy/wait cycles and
spans, instruction counts, protocol counters, and the per-phase coherence
attribution.  The randomized programs mix thread-private and shared
addresses, locks, barriers and phase markers; the hand-built traces target
the specific hazards the batch engine must detect (a private run whose L1
fill would evict a shared line, a store immediately before a barrier).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simx import (
    Barrier,
    Compute,
    Load,
    Lock,
    PhaseBegin,
    PhaseEnd,
    Store,
    ThreadTrace,
    TraceProgram,
    Unlock,
)
from repro.simx.batch import _PRIVATE, _PRIVATE_LOAD, _SEG, compile_batch
from repro.simx.trace import OP_TYPES, PHASE_BEGIN
from tests.differential.harness import (
    CONFIGS,
    LINE,
    assert_identical,
    program_of,
    run_two,
    tiny_config,
)


# ── randomized programs ───────────────────────────────────────────────────
#
# Address space: each thread owns 16 private lines; 8 lines are shared by
# everyone.  The strategy emits per-thread segment lists punctuated by the
# same barrier/phase skeleton for every thread so programs never deadlock;
# lock sections are non-nested (one lock at a time, FIFO handoff).


@st.composite
def trace_programs(draw):
    n_threads = draw(st.integers(min_value=1, max_value=4))
    n_rounds = draw(st.integers(min_value=1, max_value=3))
    use_phases = draw(st.booleans())
    threads = []
    for tid in range(n_threads):
        ops = []
        if use_phases:
            ops.append(PhaseBegin("work"))
        for rnd in range(n_rounds):
            n_ops = draw(st.integers(min_value=0, max_value=25))
            for _ in range(n_ops):
                kind = draw(
                    st.sampled_from(
                        ["compute", "pload", "pstore", "sload", "sstore", "lock"]
                    )
                )
                if kind == "compute":
                    ops.append(Compute(draw(st.integers(min_value=0, max_value=400))))
                elif kind == "pload":
                    idx = draw(st.integers(min_value=0, max_value=15))
                    ops.append(Load((0x1000 + tid * 0x100 + idx) * LINE))
                elif kind == "pstore":
                    idx = draw(st.integers(min_value=0, max_value=15))
                    ops.append(Store((0x1000 + tid * 0x100 + idx) * LINE))
                elif kind == "sload":
                    idx = draw(st.integers(min_value=0, max_value=7))
                    ops.append(Load(idx * LINE))
                elif kind == "sstore":
                    idx = draw(st.integers(min_value=0, max_value=7))
                    ops.append(Store(idx * LINE))
                else:  # a short critical section on a shared counter
                    lock_id = draw(st.integers(min_value=0, max_value=1))
                    ops.append(Lock(lock_id))
                    ops.append(Load((8 + lock_id) * LINE))
                    ops.append(Store((8 + lock_id) * LINE))
                    ops.append(Unlock(lock_id))
            if rnd < n_rounds - 1 and n_threads > 1:
                ops.append(Barrier(rnd))
        if use_phases:
            ops.append(PhaseEnd("work"))
        threads.append(ops)
    return threads


class TestRandomizedDifferential:
    """>=200 randomized programs across the config matrix."""

    @settings(max_examples=120, deadline=None)
    @given(threads=trace_programs())
    def test_tiny_config(self, threads):
        assert_identical(*run_two(CONFIGS["baseline-tiny"], program_of(threads)))

    @settings(max_examples=40, deadline=None)
    @given(threads=trace_programs())
    def test_msi(self, threads):
        assert_identical(*run_two(CONFIGS["msi"], program_of(threads)))

    @settings(max_examples=40, deadline=None)
    @given(threads=trace_programs())
    def test_mesh(self, threads):
        assert_identical(*run_two(CONFIGS["mesh"], program_of(threads)))

    @settings(max_examples=20, deadline=None)
    @given(threads=trace_programs())
    def test_asymmetric(self, threads):
        assert_identical(*run_two(CONFIGS["asymmetric"], program_of(threads)))

    @settings(max_examples=20, deadline=None)
    @given(threads=trace_programs())
    def test_bigger_l1(self, threads):
        assert_identical(*run_two(CONFIGS["bigger-l1"], program_of(threads)))


# ── hand-built adversarial traces ─────────────────────────────────────────


class TestAdversarialTraces:
    def test_private_run_becomes_shared_mid_burst(self):
        """A long private streaming run whose L1 fills must evict shared
        lines: the burst has to bail *before* the evicting access."""

        def make():
            threads = []
            for tid in range(2):
                ops = []
                for i in range(8):
                    ops.append(Load(i * LINE))  # shared: fills the tiny L1
                base = (0x1000 + tid * 0x100) * LINE
                for i in range(16):  # private run evicting through every set
                    ops.append(Load(base + i * LINE))
                    ops.append(Store(base + i * LINE))
                ops.append(Barrier(0))
                for i in range(8):
                    ops.append(Store(i * LINE))  # shared writes observe state
                threads.append(ThreadTrace(tid, ops))
            return TraceProgram("bail", threads)

        for name, cfg in CONFIGS.items():
            assert_identical(*run_two(cfg, make()))

    def test_store_immediately_before_barrier(self):
        def make():
            threads = []
            for tid in range(3):
                base = (0x1000 + tid * 0x100) * LINE
                ops = [Compute(100 * (tid + 1))]
                for b in range(3):
                    for i in range(6):
                        ops.append(Store(base + (i % 4) * LINE))
                    ops.append(Store(base))
                    ops.append(Barrier(b))
                threads.append(ThreadTrace(tid, ops))
            return TraceProgram("store-barrier", threads)

        assert_identical(*run_two(CONFIGS["baseline-tiny"], make()))

    def test_lock_handoff_between_private_runs(self):
        def make():
            threads = []
            for tid in range(3):
                base = (0x1000 + tid * 0x100) * LINE
                ops = [PhaseBegin("reduction")]
                for i in range(10):
                    ops.append(Load(base + i * LINE))
                ops.append(Lock(0))
                ops.append(Load(0))
                ops.append(Store(0))
                ops.append(Unlock(0))
                for i in range(10):
                    ops.append(Store(base + i * LINE))
                ops.append(PhaseEnd("reduction"))
                threads.append(ThreadTrace(tid, ops))
            return TraceProgram("lock-handoff", threads)

        assert_identical(*run_two(CONFIGS["baseline-tiny"], make()))

    def test_single_thread_all_private(self):
        def make():
            ops = [PhaseBegin("p")]
            for i in range(200):
                ops.append(Compute(i % 7))
                ops.append(Load((0x1000 + i % 32) * LINE))
                ops.append(Store((0x1000 + i % 16) * LINE))
            ops.append(PhaseEnd("p"))
            return TraceProgram("solo", [ThreadTrace(0, ops)])

        for cfg in CONFIGS.values():
            assert_identical(*run_two(cfg, make()))

    def test_false_sharing_same_line_different_offsets(self):
        """Two threads write different bytes of one line — shared at line
        granularity, so never fused."""

        def make():
            threads = []
            for tid in range(2):
                ops = [Store(0x4000 * LINE + tid * 8) for _ in range(20)]
                threads.append(ThreadTrace(tid, ops))
            return TraceProgram("false-sharing", threads)

        ref, bat = run_two(CONFIGS["baseline-tiny"], make())
        assert_identical(bat, ref)
        comp = compile_batch(make(), LINE)
        assert comp.n_bursts == 0  # the line is shared: nothing may fuse


# ── compilation invariants ────────────────────────────────────────────────


def entries(comp, tid) -> list:
    """Thread ``tid``'s lowered entry stream as ``(code, arg)`` pairs."""
    return list(zip(*comp.thread_entries[tid]))


def entry_ops(code, arg, labels=()) -> list:
    """A lowered entry as op objects: a segment's ops rebuilt from its
    kinds/args, a lone private op from its code less ``_PRIVATE``, and a
    sync point or phase marker from its kind and argument."""
    if code == _SEG:
        assert len(arg.kinds) == len(arg.args)
        return [OP_TYPES[k](a) for k, a in zip(arg.kinds, arg.args)]
    if code >= _PRIVATE_LOAD:
        return [OP_TYPES[code - _PRIVATE](arg)]
    return [OP_TYPES[code](labels[arg] if code >= PHASE_BEGIN else arg)]


class TestCompilation:
    def test_flattening_bursts_restores_the_original_ops(self):
        prog_threads = [
            [Compute(5), Load(0x1000 * LINE), Store(0x1000 * LINE), Barrier(0),
             Load(0), Lock(0), Unlock(0), Compute(1), Compute(2)],
            [Compute(3), Barrier(0), Load(0), Compute(9), Load(0x2000 * LINE),
             Store(0x2000 * LINE)],
        ]
        comp = compile_batch(program_of(prog_threads), LINE)
        for tid in range(len(prog_threads)):
            flat = []
            for code, arg in entries(comp, tid):
                ops = entry_ops(code, arg)
                if code == _SEG:
                    assert all(type(o) in (Compute, Load, Store) for o in ops)
                flat.extend(ops)
            assert flat == prog_threads[tid]

    def test_shared_lines_are_never_fused(self):
        prog = program_of([[Load(0), Compute(1)], [Store(0), Compute(1)]])
        comp = compile_batch(prog, LINE)
        assert comp.shared_lines == frozenset({0})
        for tid in range(2):
            for code, arg in entries(comp, tid):
                if code == _SEG or code >= _PRIVATE_LOAD:
                    assert all(type(o) is Compute for o in entry_ops(code, arg))

    def test_fused_op_accounting(self):
        prog = program_of([[Compute(1), Compute(2), Compute(3)]])
        comp = compile_batch(prog, LINE)
        assert comp.n_bursts == 1
        assert comp.n_fused_ops == 3

    def test_contended_bus_still_identical(self):
        """Gated configs run the reference engine under both knob
        settings — results must (trivially) stay identical."""

        def make():
            threads = []
            for tid in range(2):
                base = (0x1000 + tid * 0x100) * LINE
                ops = [Load(base + i * LINE) for i in range(20)]
                threads.append(ThreadTrace(tid, ops))
            return TraceProgram("contended", threads)

        assert_identical(*run_two(tiny_config(bus_occupancy=3), make()))

    def test_mesh_and_msi_combined(self):
        def make():
            threads = []
            for tid in range(4):
                base = (0x1000 + tid * 0x100) * LINE
                ops = []
                for i in range(15):
                    ops.append(Store(base + (i % 8) * LINE))
                    ops.append(Load((i % 4) * LINE))
                threads.append(ThreadTrace(tid, ops))
            return TraceProgram("mesh-msi", threads)

        cfg = tiny_config(interconnect="mesh", coherence_protocol="msi")
        assert_identical(*run_two(cfg, make()))
