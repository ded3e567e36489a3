"""The columnar trace form: validation, ownership and both engines on it.

A :class:`~repro.simx.trace.ThreadTrace` stores integer columns and
nothing else: ``ThreadTrace(tid, ops)`` lowers its ops at construction
and ``.ops`` builds op objects on demand.  These tests pin what that
promises: ``from_columns`` rejects what the op constructors reject, a
trace owns its columns (mutating the list it was built from changes
neither engine's run, and a held program costs a few bytes per op), a
generator-backed program runs the same every time, the batch engine's
hazard bail works on a columnar program, and a simulated experiment
builds no ``Compute``/``Load``/``Store`` objects at all.
"""

import gc
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro import pipeline
from repro.cli import main
from repro.simx import (
    Barrier,
    Compute,
    Load,
    Machine,
    MachineConfig,
    PhaseBegin,
    PhaseEnd,
    Store,
    ThreadTrace,
    TraceProgram,
)
from repro.simx import batch
from repro.simx.batch import compile_batch
from repro.simx.trace import (
    BARRIER,
    COMPUTE,
    LOAD,
    OP_TYPES,
    PHASE_BEGIN,
    PHASE_END,
    STORE,
)
from tests.differential.harness import LINE, assert_identical, run_two, tiny_config


def columnar(threads) -> TraceProgram:
    """A program of columnar threads with the given op streams."""
    out = []
    for tid, ops in enumerate(threads):
        kinds, args, labels = ThreadTrace(tid, ops).columns()
        out.append(ThreadTrace.from_columns(tid, kinds, args, labels))
    return TraceProgram("columnar", out)


def assert_columns_only(trace: ThreadTrace) -> None:
    """The trace holds its thread id and its columns, and nothing else."""
    kinds, args, labels = trace.columns()
    assert kinds.dtype == np.int8 and args.dtype == np.int64
    assert type(labels) is tuple
    held = {id(r) for r in gc.get_referents(trace)} - {id(ThreadTrace)}
    assert held == {id(trace.thread_id), id(trace.columns())}


def private(tid, idx):
    return (0x1000 + tid * 0x100 + idx) * LINE


# ── construction ──────────────────────────────────────────────────────────


class TestFromColumns:
    def test_materialises_every_kind(self):
        kinds = [COMPUTE, LOAD, STORE, BARRIER, 4, 5, PHASE_BEGIN, PHASE_END]
        args = [7, 64, 128, 3, 1, 1, 1, 0]
        trace = ThreadTrace.from_columns(0, kinds, args, ("a", "b"))
        assert trace.ops == [
            Compute(7), Load(64), Store(128), Barrier(3), OP_TYPES[4](1),
            OP_TYPES[5](1), PhaseBegin("b"), PhaseEnd("a"),
        ]
        assert list(trace) == trace.ops
        assert trace.ops is not trace.ops  # built on every access
        assert_columns_only(trace)

    def test_object_columns_round_trip(self):
        ops = [PhaseBegin("x"), Compute(3), Load(640), Barrier(0), PhaseEnd("x")]
        kinds, args, labels = ThreadTrace(0, ops).columns()
        assert kinds.dtype == np.int8 and args.dtype == np.int64
        assert ThreadTrace.from_columns(0, kinds, args, labels).ops == ops

    @pytest.mark.parametrize("kind, arg, make", [
        (COMPUTE, -1, lambda: Compute(-1)),
        (LOAD, -64, lambda: Load(-64)),
        (STORE, -8, lambda: Store(-8)),
    ])
    def test_rejects_what_the_constructors_reject(self, kind, arg, make):
        with pytest.raises(Exception) as ctor:
            make()
        with pytest.raises(ctor.type, match="must be >= 0"):
            ThreadTrace.from_columns(0, [COMPUTE, kind], [1, arg])

    @pytest.mark.parametrize("kind", [8, -1, 127])
    def test_rejects_an_unknown_kind(self, kind):
        with pytest.raises(ValueError, match="unknown op kind"):
            ThreadTrace.from_columns(0, [COMPUTE, kind], [1, 0])

    def test_rejects_a_phase_label_out_of_range(self):
        with pytest.raises(ValueError, match="phase label"):
            ThreadTrace.from_columns(0, [PHASE_BEGIN], [1], ("only",))

    def test_rejects_mismatched_columns(self):
        with pytest.raises(ValueError):
            ThreadTrace.from_columns(0, [COMPUTE, COMPUTE], [1])

    def test_negative_barrier_and_lock_ids_are_accepted_like_the_ops(self):
        trace = ThreadTrace.from_columns(0, [BARRIER, 4], [-1, -2])
        assert trace.ops == [Barrier(-1), OP_TYPES[4](-2)]

    def test_rejects_non_integer_columns(self):
        with pytest.raises(ValueError, match="integers"):
            ThreadTrace.from_columns(0, [COMPUTE], [2.5])
        with pytest.raises(ValueError, match="integers"):
            ThreadTrace.from_columns(0, [0.5], [1])

    def test_object_trace_rejects_non_integer_arguments(self):
        # the batch engine reads int64 columns: a fractional count must
        # not be truncated silently
        with pytest.raises(ValueError, match="integers"):
            ThreadTrace(0, [Compute(2.5)])
        with pytest.raises(ValueError, match="integers"):
            ThreadTrace(0, [Load(2**64)])


# ── one stored form ───────────────────────────────────────────────────────


class TestOneStoredForm:
    def test_an_object_trace_stores_only_its_columns(self):
        ops = [PhaseBegin("x"), Compute(3), Load(640), Barrier(0), PhaseEnd("x")]
        trace = ThreadTrace(0, ops)
        assert_columns_only(trace)
        assert trace.ops == ops and trace.ops is not ops

    def test_mutating_the_source_list_changes_neither_engine(self):
        ops = [Load(0), Compute(20)]
        program = TraceProgram("own", [ThreadTrace(0, ops)])
        ops.append(Store(LINE))
        ref, bat = run_two(tiny_config(n_cores=1), program)
        assert ref.n_ops == bat.n_ops == 2
        assert_identical(bat, ref)
        # and after a run has read the columns
        ops.append(Load(2 * LINE))
        ref_again, bat_again = run_two(tiny_config(n_cores=1), program)
        assert_identical(ref_again, ref)
        assert_identical(bat_again, ref)

    def test_a_malformed_stream_raises_at_construction(self):
        with pytest.raises(ValueError, match="unknown op"):
            ThreadTrace(0, [Compute(1), "not an op"])

    def test_a_generator_is_consumed_at_construction(self):
        ops = iter([Compute(1), Load(0)])
        trace = ThreadTrace(0, ops)
        assert next(ops, None) is None
        assert trace.ops == [Compute(1), Load(0)]

    def test_a_held_program_costs_a_few_bytes_per_op(self):
        """The 16-thread simx-merge program (57,696 ops) built from op
        objects: what it retains once built is its columns, 9 B per op,
        where holding the op list cost about 120."""
        sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"))
        try:
            import wl_simx
        finally:
            sys.path.pop(0)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            program = wl_simx.build_program(1, 0)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        n_ops = sum(len(t.columns()[0]) for t in program.threads)
        assert n_ops > 50_000
        assert held / n_ops <= 16


# ── generator-backed programs ─────────────────────────────────────────────


def generator_program() -> TraceProgram:
    def ops():
        yield PhaseBegin("p")
        yield Compute(100)
        yield Load(0)
        yield PhaseEnd("p")

    return TraceProgram("gen", [ThreadTrace(0, ops())])


class TestGeneratorBackedProgram:
    @pytest.mark.parametrize("batch_path", [True, False])
    def test_runs_identically_twice(self, batch_path):
        machine = Machine(MachineConfig(n_cores=1, batch_path=batch_path))
        program = generator_program()
        first = machine.run(program)
        second = machine.run(program)
        assert first.n_ops == 4
        assert first.total_cycles > 0
        assert_identical(second, first)

    def test_both_engines_on_one_generator_program(self):
        ref, bat = run_two(tiny_config(), generator_program())
        assert ref.n_ops == 4
        assert_identical(bat, ref)


# ── the eviction-hazard bail on a columnar program ────────────────────────


class TestColumnarBail:
    """Under the tiny L1 (4 sets x 2 ways) shared lines 0 and 4 and
    private lines 0x1000 + {0, 4, 8, 12} all map to set 0: once thread 0
    holds both shared lines, its private fill must bail mid-segment."""

    @pytest.mark.parametrize("tail", [[Load(private(0, 4)), Compute(5)], []],
                             ids=["tail-left", "no-tail"])
    def test_bail_mid_segment(self, tail):
        threads = [
            [Load(0), Load(4 * LINE), Compute(3), Load(private(0, 0))] + tail,
            [Compute(50), Load(0), Load(4 * LINE)],
        ]
        cfg = tiny_config()
        program = columnar(threads)
        bat = Machine(replace(cfg, batch_path=True)).run(program)
        for t in program.threads:
            assert_columns_only(t)
        ref, bat_again = run_two(cfg, columnar(threads))
        assert bat.n_burst_fallbacks >= 1
        assert_identical(bat, ref)
        assert_identical(bat_again, ref)


class TestColumnarEdges:
    """The two edges a first columnar prototype got wrong, through both
    engines: a thread with no ops, and a program with no loads or stores."""

    def test_a_thread_with_no_ops(self):
        threads = [[PhaseBegin("p"), Compute(40), PhaseEnd("p")], []]
        ref, bat = run_two(tiny_config(), columnar(threads))
        assert_identical(bat, ref)
        # an empty thread lowers to an empty entry stream: no codes, no args
        assert compile_batch(columnar([[]]), LINE).thread_entries == (([], []),)

    def test_a_program_with_no_loads_or_stores(self):
        threads = [[Compute(10 + t), Barrier(0), Compute(5)] for t in range(3)]
        ref, bat = run_two(tiny_config(), columnar(threads))
        assert_identical(bat, ref)
        assert compile_batch(columnar(threads), LINE).shared_lines == frozenset()


# ── where the saving sits ─────────────────────────────────────────────────


@pytest.fixture
def fresh_store(tmp_path):
    restore = pipeline.get_disk_store()
    pipeline.set_disk_store(tmp_path / "store")
    try:
        yield
    finally:
        pipeline.set_disk_store(restore)


def test_a_simulated_experiment_builds_no_compute_load_or_store(
    fresh_store, monkeypatch, tmp_path
):
    built = {Compute: 0, Load: 0, Store: 0}
    for cls in built:
        original = cls.__post_init__

        def counting(self, original=original, cls=cls):
            built[cls] += 1
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    compiled = []
    real_compile = batch.compile_batch

    def counting_compile(program, line_size):
        compiled.append(program.name)
        return real_compile(program, line_size)

    monkeypatch.setattr(batch, "compile_batch", counting_compile)
    monkeypatch.chdir(tmp_path)
    assert main(["run", "table2", "--scale", "0.05"]) in (0, 1)
    assert compiled, "table2 ran no batch simulation"
    assert built == {Compute: 0, Load: 0, Store: 0}
