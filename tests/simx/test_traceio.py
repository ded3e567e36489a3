"""Unit tests for trace serialisation: JSONL records and pickled ops."""

import pickle

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
    ThreadTrace,
    TraceProgram,
    Unlock,
)
from repro.simx.config import CacheConfig
from repro.simx.trace import OP_TYPES
from repro.simx.traceio import dump_program, load_program, op_from_record, op_to_record

ONE_OF_EACH = [
    Compute(42), Load(640), Store(0), Barrier(3), Lock(1), Unlock(1),
    PhaseBegin("x"), PhaseEnd("x"),
]


def sample_program() -> TraceProgram:
    return TraceProgram(
        name="demo",
        threads=[
            ThreadTrace(0, [
                PhaseBegin("work"), Compute(100), Load(64), Store(128),
                Lock(1), Compute(10), Unlock(1), Barrier(0), PhaseEnd("work"),
            ]),
            ThreadTrace(1, [
                PhaseBegin("work"), Compute(50), Barrier(0), PhaseEnd("work"),
            ]),
        ],
        metadata={"workload": "demo", "n_iterations": 1},
    )


class TestOpValues:
    def test_one_of_each_kind(self):
        assert [type(op) for op in ONE_OF_EACH] == list(OP_TYPES)

    @pytest.mark.parametrize("op", ONE_OF_EACH)
    def test_pickle_roundtrip_each_kind(self, op):
        back = pickle.loads(pickle.dumps(op))
        assert back == op and type(back) is type(op)

    @pytest.mark.parametrize("op", ONE_OF_EACH)
    def test_ops_are_slotted(self, op):
        assert not hasattr(op, "__dict__")


class TestOpRecords:
    @pytest.mark.parametrize("op", ONE_OF_EACH)
    def test_roundtrip_each_kind(self, op):
        tid, back = op_from_record(op_to_record(5, op))
        assert tid == 5
        assert back == op

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            op_from_record({"t": 0, "op": "Z"})


class TestFileRoundtrip:
    def test_program_roundtrip(self, tmp_path):
        original = sample_program()
        path = dump_program(original, tmp_path / "demo.jsonl")
        loaded = load_program(path)
        assert loaded.name == "demo"
        assert loaded.n_threads == 2
        assert loaded.metadata["workload"] == "demo"
        assert list(loaded.threads[0]) == list(sample_program().threads[0])

    def test_loaded_program_runs_identically(self, tmp_path):
        cfg = MachineConfig(
            n_cores=2,
            l1d=CacheConfig(size=16 * 64, ways=4),
            l1i=CacheConfig(size=16 * 64, ways=4),
            l2=CacheConfig(size=128 * 64, ways=8, hit_latency=12),
        )
        path = dump_program(sample_program(), tmp_path / "t.jsonl")
        a = Machine(cfg).run(sample_program())
        b = Machine(cfg).run(load_program(path))
        assert a.total_cycles == b.total_cycles
        assert a.thread_cycles == b.thread_cycles

    def test_generated_workload_trace_roundtrip(self, tmp_path):
        from repro.workloads.datasets import make_blobs
        from repro.workloads.kmeans import KMeansWorkload
        from repro.workloads.tracegen import program_from_execution

        wl = KMeansWorkload(make_blobs(300, 4, 3, seed=1), max_iterations=1,
                            tolerance=1e-12)
        prog = program_from_execution(wl.execute(2), mem_scale=4)
        path = dump_program(prog, tmp_path / "km.jsonl")
        loaded = load_program(path)
        assert loaded.n_threads == 2
        # op counts preserved
        assert sum(1 for _ in loaded.threads[0]) > 0

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"kind": "nonsense"}\n')
        with pytest.raises(ValueError):
            load_program(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        with pytest.raises(ValueError):
            load_program(p)

    def test_out_of_range_thread(self, tmp_path):
        p = tmp_path / "oob.jsonl"
        p.write_text(
            '{"kind": "program", "name": "x", "n_threads": 1, "metadata": {}}\n'
            '{"t": 5, "op": "C", "n": 1}\n'
        )
        with pytest.raises(ValueError):
            load_program(p)

    def test_loading_and_dumping_build_no_op_objects(self, tmp_path, monkeypatch):
        path = dump_program(sample_program(), tmp_path / "demo.jsonl")
        built = []
        for cls in OP_TYPES:
            monkeypatch.setattr(cls, "__init__", lambda self, *a: built.append(a))
        loaded = load_program(path)
        dump_program(loaded, tmp_path / "again.jsonl")
        assert built == []
        assert (tmp_path / "again.jsonl").read_text() == path.read_text()

    def test_a_negative_address_is_rejected(self, tmp_path):
        p = tmp_path / "neg.jsonl"
        p.write_text(
            '{"kind": "program", "name": "x", "n_threads": 1, "metadata": {}}\n'
            '{"t": 0, "op": "L", "a": -64}\n'
        )
        with pytest.raises(ValueError, match=r"neg\.jsonl: thread 0: addr must be >= 0"):
            load_program(p)

    def test_bad_op_record_names_its_line(self, tmp_path):
        p = tmp_path / "bad-op.jsonl"
        p.write_text(
            '{"kind": "program", "name": "x", "n_threads": 1, "metadata": {}}\n'
            '{"t": 0, "op": "C"}\n'
        )
        with pytest.raises(ValueError, match=r"bad-op\.jsonl:2: bad op record"):
            load_program(p)
