"""Model oracles: the kernels and the scalar API equal the frozen stack.

``repro.core.gridkernels`` is the one implementation of Eqs 1–8 and the
scalar API (``amdahl``, ``hill_marty``, ``merging``, ``communication``,
``optimizer``) is a thin view onto it.  The oracle is
``tests/core/reference_models.py``, a frozen copy of the scalar stack that
evaluated each equation on its own.  Both the kernels and the scalar API
must equal it *bit for bit* (same float64 operations in the same order),
which is what keeps the golden reports byte-exact.  Every check here
therefore asserts exact equality (``np.array_equal`` / ``==``), never
closeness, across hundreds of randomized parameter points per equation.
"""

import random

import numpy as np
import pytest

from repro.core import amdahl, communication, gridkernels, hill_marty, merging, optimizer
from repro.core.growth import LINEAR_COMP, LOG_COMP, MESH_COMM, PARALLEL_COMP
from repro.core.params import AppParams
from repro.experiments import conclusions
from tests.core import reference_models as ref

_SEED = 20260808


def _points(n_cases=60, seed=_SEED):
    rng = random.Random(seed)
    out = []
    for _ in range(n_cases):
        out.append((
            rng.uniform(0.2, 0.9999),  # f (AppParams forbids exactly 1.0)
            rng.uniform(0.0, 1.0),     # fcon_share
            rng.uniform(0.0, 1.0),     # fored_share
        ))
    return out

POINTS = _points()
NS = (16, 64, 256)
GROWTHS = ("linear", "log")


def _sizes(n):
    sizes = merging.power_of_two_sizes(n)
    assert np.array_equal(sizes, ref.merging.power_of_two_sizes(n))
    return sizes


class TestEq1Amdahl:
    def test_grid_matches_scalar(self):
        rng = random.Random(_SEED + 1)
        fs = np.array([rng.uniform(0.0, 1.0) for _ in range(50)])
        ps = np.array([float(rng.randrange(1, 512)) for _ in range(50)])
        grid = gridkernels.amdahl_speedup(fs, ps)
        oracle = np.array([ref.amdahl.speedup(f, p) for f, p in zip(fs, ps)])
        scalar = np.array([amdahl.speedup(f, p) for f, p in zip(fs, ps)])
        assert np.array_equal(grid, oracle)
        assert np.array_equal(scalar, oracle)


class TestEq2And3HillMarty:
    @pytest.mark.parametrize("n", NS)
    def test_symmetric(self, n):
        sizes = _sizes(n)
        for f, _, _ in POINTS[:20]:
            grid = gridkernels.hm_symmetric(f, n, sizes)
            scalar = hill_marty.speedup_symmetric(f, n, sizes)
            oracle = ref.hill_marty.speedup_symmetric(f, n, sizes)
            assert np.array_equal(grid, oracle)
            assert np.array_equal(scalar, oracle)

    @pytest.mark.parametrize("n", NS)
    def test_asymmetric(self, n):
        sizes = _sizes(n)
        for f, _, _ in POINTS[:20]:
            grid = gridkernels.hm_asymmetric(f, n, sizes)
            scalar = hill_marty.speedup_asymmetric(f, n, sizes)
            oracle = ref.hill_marty.speedup_asymmetric(f, n, sizes)
            assert np.array_equal(grid, oracle)
            assert np.array_equal(scalar, oracle)

    def test_asymmetric_grouped(self):
        n = 256
        sizes = _sizes(n)
        for f, _, _ in POINTS[:20]:
            for r in (1.0, 4.0, 16.0):
                feasible = sizes[sizes >= r]
                grid = gridkernels.hm_asymmetric_grouped(f, n, feasible, r)
                oracle = ref.hill_marty.speedup_asymmetric_grouped(f, n, feasible, r)
                assert np.array_equal(grid, oracle)


class TestEq4And5Merging:
    @pytest.mark.parametrize("growth", GROWTHS)
    @pytest.mark.parametrize("n", NS)
    def test_symmetric(self, n, growth):
        sizes = _sizes(n)
        for f, c, o in POINTS[:15]:
            params = AppParams(f=f, fcon_share=c, fored_share=o)
            grid = gridkernels.merging_symmetric(f, c, o, n, sizes, growth)
            scalar = merging.speedup_symmetric(params, n, sizes, growth)
            oracle = ref.merging.speedup_symmetric(params, n, sizes, growth)
            assert np.array_equal(grid, oracle)
            assert np.array_equal(scalar, oracle)

    @pytest.mark.parametrize("growth", GROWTHS)
    def test_asymmetric(self, growth):
        n = 256
        sizes = _sizes(n)
        for f, c, o in POINTS[:15]:
            params = AppParams(f=f, fcon_share=c, fored_share=o)
            for r in (1.0, 4.0, 16.0):
                feasible = sizes[sizes >= r]
                grid = gridkernels.merging_asymmetric(
                    f, c, o, n, feasible, r, growth
                )
                scalar = merging.speedup_asymmetric(
                    params, n, feasible, r, growth
                )
                oracle = ref.merging.speedup_asymmetric(
                    params, n, feasible, r, growth
                )
                assert np.array_equal(grid, oracle)
                assert np.array_equal(scalar, oracle)


class TestEq6To8Communication:
    @pytest.mark.parametrize("comp", [PARALLEL_COMP, LINEAR_COMP, LOG_COMP],
                             ids=lambda c: c.name)
    def test_symmetric(self, comp):
        n = 256
        sizes = _sizes(n)
        for f, c, _ in POINTS[:15]:
            params = AppParams(f=f, fcon_share=c, fored_share=0.5)
            grid = gridkernels.comm_symmetric(f, c, n, sizes, comp, MESH_COMM)
            scalar = communication.speedup_symmetric_comm(
                params, n, sizes, comp, MESH_COMM
            )
            oracle = ref.communication.speedup_symmetric_comm(
                params, n, sizes, comp, MESH_COMM
            )
            assert np.array_equal(grid, oracle)
            assert np.array_equal(scalar, oracle)

    def test_asymmetric(self):
        n = 256
        sizes = _sizes(n)
        for f, c, _ in POINTS[:15]:
            params = AppParams(f=f, fcon_share=c, fored_share=0.5)
            for r in (1.0, 4.0):
                feasible = sizes[sizes >= r]
                grid = gridkernels.comm_asymmetric(f, c, n, feasible, r)
                scalar = communication.speedup_asymmetric_comm(
                    params, n, feasible, r
                )
                oracle = ref.communication.speedup_asymmetric_comm(
                    params, n, feasible, r
                )
                assert np.array_equal(grid, oracle)
                assert np.array_equal(scalar, oracle)

    def test_eq8_mesh_growth(self):
        rng = random.Random(_SEED + 8)
        nc = np.array([rng.uniform(0.1, 300.0) for _ in range(200)])
        grid = gridkernels.mesh_growcomm(nc)
        scalar = np.array([float(np.sqrt(x) / 2.0) if x > 1.0 else 0.0
                           for x in nc])
        assert np.array_equal(grid, scalar)
        assert np.array_equal(grid, ref.communication.mesh_growcomm(nc))


class TestDesignSpaceReducers:
    def test_best_symmetric_matches_scalar_optimiser(self):
        n = 256
        f = np.array([p[0] for p in POINTS])
        c = np.array([p[1] for p in POINTS])
        o = np.array([p[2] for p in POINTS])
        best_r, best_sp = gridkernels.best_symmetric_grid(f, c, o, n)
        for i, (fv, cv, ov) in enumerate(POINTS):
            params = AppParams(f=fv, fcon_share=cv, fored_share=ov)
            d = ref.merging.best_symmetric(params, n)
            assert best_r[i] == d.r
            assert best_sp[i] == d.speedup
            scalar = merging.best_symmetric(params, n)
            assert (scalar.r, scalar.speedup, scalar.n) == (d.r, d.speedup, d.n)

    def test_best_asymmetric_matches_scalar_optimiser(self):
        n = 256
        f = np.array([p[0] for p in POINTS])
        c = np.array([p[1] for p in POINTS])
        o = np.array([p[2] for p in POINTS])
        best_rl, best_r, best_sp = gridkernels.best_asymmetric_grid(f, c, o, n)
        for i, (fv, cv, ov) in enumerate(POINTS):
            params = AppParams(f=fv, fcon_share=cv, fored_share=ov)
            d = ref.merging.best_asymmetric(params, n)
            assert best_rl[i] == d.rl
            assert best_r[i] == d.r
            assert best_sp[i] == d.speedup
            scalar = merging.best_asymmetric(params, n)
            assert (scalar.rl, scalar.r, scalar.speedup, scalar.n) == (
                d.rl, d.r, d.speedup, d.n)

    @pytest.mark.parametrize("n", NS)
    def test_hill_marty_best_symmetric_matches_frozen_loop(self, n):
        for f, _, _ in POINTS:
            assert hill_marty.best_symmetric(f, n) == ref.hill_marty.best_symmetric(f, n)

    @pytest.mark.parametrize("growth", GROWTHS)
    def test_compare_architectures_matches_frozen_loops(self, growth):
        for f, c, o in POINTS[:24]:
            params = AppParams(f=f, fcon_share=c, fored_share=o)
            got = optimizer.compare_architectures(params, 256, growth=growth)
            want = ref.optimizer.compare_architectures(params, 256, growth=growth)
            assert got.amdahl_symmetric == want.amdahl_symmetric
            assert got.amdahl_asymmetric == want.amdahl_asymmetric
            assert got.acmp_speedup_ratio == want.acmp_speedup_ratio
            assert got.amdahl_speedup_ratio == want.amdahl_speedup_ratio
            assert (got.symmetric.r, got.asymmetric.rl, got.asymmetric.r) == (
                want.symmetric.r, want.asymmetric.rl, want.asymmetric.r)

    @pytest.mark.parametrize("growth", GROWTHS)
    def test_optimal_r_map_matches_frozen_loop(self, growth):
        cons = [p[1] for p in POINTS[:8]]
        ores = [p[2] for p in POINTS[8:14]]
        for f, _, _ in POINTS[:5]:
            got = optimizer.optimal_r_map(f, 256, cons, ores, growth)
            assert np.array_equal(
                got, ref.optimizer.optimal_r_map(f, 256, cons, ores, growth))


class TestConclusionsGrid:
    def test_grid_matches_point_oracle_on_random_points(self):
        pts = POINTS[:24]
        grid = gridkernels.conclusions_grid(
            np.array([p[0] for p in pts]),
            np.array([p[1] for p in pts]),
            np.array([p[2] for p in pts]),
            n=256,
        )
        for i, (f, c, o) in enumerate(pts):
            point = ref.conclusions.evaluate_point(f, c, o, 256)
            for key, value in point.items():
                assert grid[key][i] == value, (key, f, c, o)

    def test_experiment_grid_helper_is_plain_python(self):
        out = conclusions.evaluate_grid([0.99, 0.999], [0.5, 0.9],
                                        [0.8, 0.2], 256)
        point = ref.conclusions.evaluate_point(0.99, 0.5, 0.8, 256)
        for key, value in point.items():
            assert out[key][0] == value
