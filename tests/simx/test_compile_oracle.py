"""The columnar batch compiler against its frozen object-walking oracle.

:func:`repro.simx.batch.compile_batch` lowers a program from its integer
columns; ``tests/simx/reference_compile.py`` is the compiler as it stood
before, walking op objects.  Both must lower every program to the same
shared-line set, burst counts, segments and sync entries.  The corpora
are the differential generator's mixes, the e2e ``simx-merge`` programs
and columnar trace-generator programs.

The live compiler represents a shared load or store as a ``(kind, addr)``
pair where the oracle kept the ``Load``/``Store`` object; the comparison
rebuilds the object from the pair and otherwise compares exactly.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.simx.batch import _Seg, compile_batch
from repro.simx.trace import LOAD, OP_TYPES, STORE
from repro.workloads.datasets import make_blobs
from repro.workloads.kmeans import KMeansWorkload
from repro.workloads.tracegen import TraceGenerator
from tests.differential.gen import MIXES, generate_program
from tests.simx import reference_compile
from tests.workloads import reference_tracegen

ROOT = Path(__file__).resolve().parents[2]
LINE = 64


def lowered(entry):
    """A comparable form of one lowered entry of either compiler."""
    if isinstance(entry, (_Seg, reference_compile._Seg)):
        carr = None if entry.carr is None else entry.carr.tolist()
        return ("seg", tuple(entry.kinds), tuple(entry.args), entry.lead,
                entry.total_instr, carr)
    if isinstance(entry, tuple):
        kind, addr = entry
        assert kind in (LOAD, STORE)
        return OP_TYPES[kind](addr)
    return entry


def assert_same_lowering(program, oracle_program, line_size=LINE):
    got = compile_batch(program, line_size)
    want = reference_compile.compile_batch(oracle_program, line_size)
    assert got.shared_lines == want.shared_lines
    assert got.n_bursts == want.n_bursts
    assert got.n_fused_ops == want.n_fused_ops
    assert len(got.thread_entries) == len(want.thread_entries)
    for tid, (g, w) in enumerate(zip(got.thread_entries, want.thread_entries)):
        assert [lowered(e) for e in g] == [lowered(e) for e in w], f"thread {tid}"
    for entries in got.thread_entries:
        for e in entries:
            if isinstance(e, _Seg):
                assert type(e.kinds) is list and type(e.args) is list
                assert all(type(a) is int for a in e.args)


class TestDifferentialMixes:
    @pytest.mark.parametrize("mix", MIXES)
    def test_every_mix(self, mix):
        for seed in range(40):
            assert_same_lowering(
                generate_program(seed, mix), generate_program(seed, mix)
            )

    def test_other_line_sizes(self):
        for seed in range(10):
            for line_size in (32, 128):
                assert_same_lowering(
                    generate_program(seed, "mixed"),
                    generate_program(seed, "mixed"),
                    line_size,
                )


class TestSimxMergePrograms:
    @pytest.fixture(scope="class")
    def wl_simx(self):
        sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
        try:
            import wl_simx
        finally:
            sys.path.pop(0)
        return wl_simx

    @pytest.mark.parametrize("seed", [1, 2])
    def test_seed(self, wl_simx, seed):
        for index in range(wl_simx.FULL[0]):
            program = wl_simx.build_program(seed, index)
            assert_same_lowering(program, wl_simx.build_program(seed, index))

    def test_sync_entries_reuse_the_callers_op_objects(self, wl_simx):
        program = wl_simx.build_program(1, 0, smoke=True)
        compiled = compile_batch(program, LINE)
        for trace, entries in zip(program.threads, compiled.thread_entries):
            objs = {id(op) for op in trace.ops}
            for e in entries:
                if not isinstance(e, (_Seg, tuple)):
                    assert id(e) in objs


class TestColumnarTracegenPrograms:
    @pytest.fixture(scope="class")
    def workload(self):
        return KMeansWorkload(make_blobs(400, 4, 4, seed=3), max_iterations=3,
                              tolerance=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    @pytest.mark.parametrize("mem_scale", [1, 2])
    def test_kmeans(self, workload, p, mem_scale):
        ex = workload.execute(p)
        program = TraceGenerator(mem_scale=mem_scale).program(ex)
        assert not any(t.materialised for t in program.threads)
        oracle = reference_tracegen.TraceGenerator(mem_scale=mem_scale).program(ex)
        assert_same_lowering(program, oracle)
        # the lowering read only the columns
        assert not any(t.materialised for t in program.threads)

    def test_pure_compute_runs_carry_the_float_column(self):
        from repro.simx import ThreadTrace, TraceProgram

        program = TraceProgram("c", [ThreadTrace.from_columns(
            0, np.zeros(20, dtype=np.int8), np.arange(20), ()
        )])
        (seg,) = compile_batch(program, LINE).thread_entries[0]
        assert seg.lead == 20 and seg.total_instr == sum(range(20))
        assert seg.carr.dtype == np.float64 and seg.carr.tolist() == list(range(20))
