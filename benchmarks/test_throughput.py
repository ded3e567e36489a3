"""Micro-benchmarks: library throughput (not a paper artifact).

Keeps an eye on the two hot paths — vectorised model evaluation (sweeps
must stay O(microseconds)) and the discrete-event simulator's
operations-per-second (which bounds feasible dataset scales).
"""

import sys
from pathlib import Path

import numpy as np

from repro.core import merging
from repro.core.params import AppParams
from repro.simx import Compute, Load, Machine, MachineConfig, Store, ThreadTrace, TraceProgram


def test_model_sweep_throughput(benchmark):
    """A full Fig-4 panel (36 model evaluations) per call."""
    params = AppParams(f=0.99, fcon_share=0.6, fored_share=0.8)
    sizes = merging.power_of_two_sizes(256)

    def sweep():
        out = []
        for f in (0.999, 0.99):
            p = params.with_(f=f)
            for g in ("linear", "log"):
                out.append(merging.speedup_symmetric(p, 256, sizes, g))
        return out

    result = benchmark(sweep)
    assert all(np.all(np.asarray(r) > 0) for r in result)


def test_simulator_op_throughput(benchmark):
    """Simulated ops per call: 4 threads x 3000 mixed ops."""
    machine = Machine(MachineConfig.baseline(n_cores=4))

    def build_and_run():
        threads = []
        for tid in range(4):
            ops = []
            base = 0x100000 * (tid + 1)
            for i in range(1000):
                ops.append(Compute(40))
                ops.append(Load(base + (i % 256) * 64))
                ops.append(Store(base + (i % 64) * 64))
            threads.append(ThreadTrace(tid, ops))
        return machine.run(TraceProgram("micro", threads))

    result = benchmark(build_and_run)
    assert result.total_cycles > 0


def test_conclusions_grid_vectorized(benchmark):
    """The conclusions experiment's 48-point design-space sweep as one
    vectorized ``gridkernels.conclusions_grid`` call (acceptance bar:
    >= 5x over the scalar loop below)."""
    from repro.core import gridkernels
    from repro.experiments import conclusions

    pts = [(p.f, p.fcon_share, p.fored_share) for p in conclusions._grid()]
    f = np.array([p[0] for p in pts])
    c = np.array([p[1] for p in pts])
    o = np.array([p[2] for p in pts])
    benchmark.extra_info["n_points"] = len(pts)

    out = benchmark(gridkernels.conclusions_grid, f, c, o, 256)
    assert all(v.shape == (len(pts),) for v in out.values())


def test_conclusions_grid_scalar(benchmark):
    """The same 48 points through the frozen per-point scalar optimisers
    (``tests/core/reference_models.py``, the model oracle) — the baseline
    the vectorized kernel is measured against."""
    from repro.experiments import conclusions

    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from tests.core.reference_models import conclusions as reference

    pts = [(p.f, p.fcon_share, p.fored_share) for p in conclusions._grid()]
    benchmark.extra_info["n_points"] = len(pts)

    def sweep():
        return [reference.evaluate_point(f, c, o, 256) for f, c, o in pts]

    rows = benchmark(sweep)
    assert len(rows) == len(pts)


def test_asymmetric_sweep_throughput(benchmark):
    """A full Fig-5 panel (3 r-curves over the rl grid)."""
    params = AppParams(f=0.99, fcon_share=0.9, fored_share=0.8)

    def sweep():
        return [
            merging.sweep_asymmetric(params, 256, r=r)[1] for r in (1.0, 4.0, 16.0)
        ]

    curves = benchmark(sweep)
    assert all(c.size > 0 for c in curves)


def test_coherence_protocol_throughput(benchmark):
    """MESI transactions per call: a mixed read/write/share stream."""
    from repro.simx.coherence import CoherenceController
    from repro.simx.config import MachineConfig

    def run_stream():
        c = CoherenceController(MachineConfig.baseline(n_cores=8))
        total = 0
        for i in range(2000):
            core = i % 8
            line = (i * 7) % 512
            if i % 3:
                total += c.read(core, line * 64)
            else:
                total += c.write(core, line * 64)
        return total

    assert benchmark(run_stream) > 0


def test_workload_execute_throughput(benchmark):
    """kmeans numeric execution + accounting (no simulation)."""
    from repro.workloads.datasets import make_blobs
    from repro.workloads.kmeans import KMeansWorkload

    wl = KMeansWorkload(
        make_blobs(4000, 9, 8, seed=1), max_iterations=3, tolerance=1e-12
    )
    ex = benchmark(wl.execute, 8)
    assert ex.n_iterations == 3


def test_tracegen_throughput(benchmark):
    """Compilation of a workload execution into a trace program."""
    from repro.workloads.datasets import make_blobs
    from repro.workloads.kmeans import KMeansWorkload
    from repro.workloads.tracegen import program_from_execution

    ex = KMeansWorkload(
        make_blobs(4000, 9, 8, seed=1), max_iterations=3, tolerance=1e-12
    ).execute(8)
    prog = benchmark(program_from_execution, ex)
    assert prog.n_threads == 8


def test_extraction_throughput(benchmark):
    """Parameter extraction from a 5-point breakdown set."""
    from repro.workloads.instrument import PhaseBreakdown, extract_parameters

    breakdowns = {
        p: PhaseBreakdown(
            n_threads=p, total=1e6 / p + 600 + 400 * (1 + 0.7 * (p - 1)),
            init=300, parallel=1e6 / p,
            reduction=400 * (1 + 0.7 * (p - 1)), serial=300,
        )
        for p in (1, 2, 4, 8, 16)
    }
    ep = benchmark(extract_parameters, breakdowns, "bench")
    assert ep.fored_rel > 0
