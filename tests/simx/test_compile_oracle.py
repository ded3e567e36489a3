"""The columnar batch compiler against its frozen object-walking oracle.

:func:`repro.simx.batch.compile_batch` lowers a program from its integer
columns; ``tests/simx/reference_compile.py`` is the compiler as it stood
before, walking op objects.  Both must lower every program to the same
shared-line set, burst counts, segments and sync entries.  The corpora
are the differential generator's mixes, the e2e ``simx-merge`` programs
and columnar trace-generator programs.

The live compiler lowers each thread to an entry stream of ``(code,
arg)`` pairs where the oracle kept a list of entries: a sync point or
phase marker is its op kind and argument where the oracle kept the op
object, and a lone private op is a code where the oracle kept a one-op
segment.  The comparison maps every pair back to the oracle's form and
otherwise compares exactly.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.simx.batch import _PRIVATE, _PRIVATE_LOAD, _SEG, _Seg, compile_batch
from repro.simx.trace import COMPUTE, OP_TYPES, PHASE_BEGIN
from repro.workloads.datasets import make_blobs
from repro.workloads.kmeans import KMeansWorkload
from repro.workloads.tracegen import TraceGenerator
from tests.differential.gen import MIXES, generate_program
from tests.simx import reference_compile
from tests.simx.test_columnar_trace import assert_columns_only
from tests.workloads import reference_tracegen

ROOT = Path(__file__).resolve().parents[2]
LINE = 64


def lowered(entry, labels=()):
    """A comparable form of one lowered entry of either compiler: an
    oracle entry, or a live ``(code, arg)`` pair whose phase labels are
    ``labels``.  A lone private op maps to the one-op segment the oracle
    built for it: its lead is 1 for a compute, 0 for an access."""
    if isinstance(entry, tuple):
        code, arg = entry
        if code == _SEG:
            entry = arg
        elif code == COMPUTE:
            return ("seg", (COMPUTE,), (arg,), 1, 0, None)
        elif code >= _PRIVATE_LOAD:
            return ("seg", (code - _PRIVATE,), (arg,), 0, 0, None)
        else:
            return OP_TYPES[code](labels[arg] if code >= PHASE_BEGIN else arg)
    if isinstance(entry, reference_compile._Seg):
        carr = None if entry.carr is None else entry.carr.tolist()
        return ("seg", tuple(entry.kinds), tuple(entry.args), entry.lead,
                entry.total_instr, carr)
    if isinstance(entry, _Seg):
        # the live segment keeps no instruction total: the oracle's is
        # the sum of a pure-compute run's counts, 0 for any other run
        carr = None if entry.carr is None else entry.carr.tolist()
        return ("seg", tuple(entry.kinds), tuple(entry.args), entry.lead,
                0 if carr is None else sum(entry.args), carr)
    return entry


def assert_same_lowering(program, oracle_program, line_size=LINE):
    got = compile_batch(program, line_size)
    want = reference_compile.compile_batch(oracle_program, line_size)
    assert got.shared_lines == want.shared_lines
    assert got.n_bursts == want.n_bursts
    assert got.n_fused_ops == want.n_fused_ops
    assert len(got.thread_entries) == len(want.thread_entries)
    for tid, ((codes, args), w) in enumerate(zip(got.thread_entries, want.thread_entries)):
        labels = got.thread_labels[tid]
        assert len(codes) == len(args)
        assert [lowered(e, labels) for e in zip(codes, args)] == [lowered(e) for e in w], \
            f"thread {tid}"
        assert all(type(c) is int for c in codes)
        for c, e in zip(codes, args):
            if c == _SEG:
                assert type(e.kinds) is list and type(e.args) is list
                assert all(type(a) is int for a in e.args)
            else:
                assert type(e) is int


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

    def test_addresses_too_wide_for_the_packed_sort(self):
        """Lines near 2**56 leave no room to pack a position beside them,
        so the shared-line sort falls back to numpy's stable argsort."""
        from repro.simx import Compute, Load, Store, ThreadTrace, TraceProgram

        def program():
            top = 1 << 62
            threads = []
            for tid in range(2):
                ops = []
                for i in range(40):
                    ops += [Load(top + (i % 7) * LINE), Compute(i),
                            Store(top + (tid * 100 + i) * LINE)]
                threads.append(ThreadTrace(tid, ops))
            return TraceProgram("wide", threads)

        assert_same_lowering(program(), program())
        assert len(compile_batch(program(), LINE).shared_lines) == 7


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

    def test_only_multi_op_segments_are_objects(self, wl_simx):
        program = wl_simx.build_program(1, 0, smoke=True)
        compiled = compile_batch(program, LINE)
        n_segments = 0
        for codes, args in compiled.thread_entries:
            for c, a in zip(codes, args):
                if c == _SEG:
                    n_segments += 1
                    assert isinstance(a, _Seg) and len(a.kinds) >= 2
                else:
                    assert type(a) is int
        assert n_segments == compiled.n_bursts


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
        oracle = reference_tracegen.TraceGenerator(mem_scale=mem_scale).program(ex)
        assert_same_lowering(program, oracle)
        # the columns stay the traces' only stored form
        for t in program.threads:
            assert_columns_only(t)

    def test_pure_compute_runs_carry_the_float_column(self):
        from repro.simx import ThreadTrace, TraceProgram

        program = TraceProgram("c", [ThreadTrace.from_columns(
            0, np.zeros(20, dtype=np.int8), np.arange(20), ()
        )])
        ((code,), (seg,)) = compile_batch(program, LINE).thread_entries[0]
        assert code == _SEG and seg.lead == 20
        assert seg.carr.dtype == np.float64 and seg.carr.tolist() == list(range(20))
