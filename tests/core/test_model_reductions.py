"""Property-based invariants of the model equations (Eq 1–5).

Randomised grids over ``(n, r, f, c, o)`` built with the stdlib
``random`` module under a fixed seed — no external property-testing
dependency — checking the algebraic structure the paper relies on:

* the Hill–Marty forms (Eq 2 symmetric, Eq 3 asymmetric) collapse to
  Amdahl's law (Eq 1) when every core is a base core (``r = 1`` /
  ``rl = 1``, where ``perf(1) = 1``);
* the extended merging model (Eq 4) collapses to Hill–Marty (Eq 2) when
  the growing-overhead share is zero (``o = 0``), for *every* core size
  and growth law;
* speedup is monotone non-decreasing in the parallel fraction ``f``;
* merging overhead only ever costs: the extended speedup never exceeds
  the Hill–Marty speedup for the same ``(f, n, r)`` (``grow(nc) >= 1``
  for every shipped growth law, so the serial term can only grow).
"""

import math
import random

import numpy as np
import pytest

from repro.core import amdahl, communication, gridkernels, hill_marty, merging
from repro.core.growth import MESH_COMM, PARALLEL_COMP, PolynomialGrowth, resolve_growth
from repro.core.params import AppParams
from tests.core import reference_models as ref

_SEED = 20260806
_N_CASES = 60

#: every growth-law spec the model ships (poly spans sub- to super-linear)
_GROWTHS = ("linear", "log", "parallel", "poly:0.5", "poly:1.7", "poly:3")


def _random_grid(seed=_SEED, n_cases=_N_CASES):
    """Deterministic random (n, r, f, c, o, growth) tuples.

    ``r`` is drawn from the paper's power-of-two sweep grid for the drawn
    ``n`` so it always satisfies ``1 <= r <= n``.
    """
    rng = random.Random(seed)
    cases = []
    for i in range(n_cases):
        n = 2 ** rng.randint(2, 10)  # 4 .. 1024 BCEs
        r = 2 ** rng.randint(0, int(math.log2(n)))
        f = rng.uniform(0.01, 0.999)
        c = rng.uniform(0.0, 1.0)    # fcon_share
        o = rng.uniform(0.0, 1.0)    # fored_share
        growth = _GROWTHS[rng.randrange(len(_GROWTHS))]
        cases.append(pytest.param(n, r, f, c, o, growth,
                                  id=f"case{i}-n{n}-r{r}-{growth}"))
    return cases


_CASES = _random_grid()


@pytest.mark.parametrize("n,r,f,c,o,growth", _CASES)
class TestReductions:
    def test_eq2_reduces_to_amdahl_at_r1(self, n, r, f, c, o, growth):
        """Eq 2 with one-BCE cores is exactly Eq 1 (perf(1) = 1)."""
        assert hill_marty.speedup_symmetric(f, n, 1.0) == pytest.approx(
            amdahl.speedup(f, n), rel=1e-12
        )

    def test_eq3_reduces_to_amdahl_at_rl1(self, n, r, f, c, o, growth):
        """Eq 3 with a one-BCE 'large' core is exactly Eq 1."""
        assert hill_marty.speedup_asymmetric(f, n, 1.0) == pytest.approx(
            amdahl.speedup(f, n), rel=1e-12
        )

    def test_eq4_reduces_to_eq2_when_o_is_zero(self, n, r, f, c, o, growth):
        """With no growing overhead the merging model IS Hill–Marty, for
        any core size and any growth law."""
        params = AppParams(f=f, fcon_share=c, fored_share=0.0)
        assert merging.speedup_symmetric(params, n, r, growth=growth) == (
            pytest.approx(hill_marty.speedup_symmetric(f, n, r), rel=1e-12)
        )

    def test_eq5_reduces_to_eq3_when_o_is_zero(self, n, r, f, c, o, growth):
        """Asymmetric analogue: Eq 5 at o = 0 matches Eq 3 (small cores
        of 1 BCE, which is Eq 3's shape)."""
        params = AppParams(f=f, fcon_share=c, fored_share=0.0)
        rl = max(float(r), 1.0)
        assert merging.speedup_asymmetric(params, n, rl, r=1.0,
                                          growth=growth) == (
            pytest.approx(hill_marty.speedup_asymmetric(f, n, rl), rel=1e-12)
        )

    def test_speedup_monotone_in_f(self, n, r, f, c, o, growth):
        """More parallelism never slows the modelled chip down."""
        lo = AppParams(f=max(f - 0.005, 1e-6), fcon_share=c, fored_share=o)
        hi = AppParams(f=min(f + 0.005, 1 - 1e-9), fcon_share=c, fored_share=o)
        s_lo = merging.speedup_symmetric(lo, n, r, growth=growth)
        s_hi = merging.speedup_symmetric(hi, n, r, growth=growth)
        assert s_hi >= s_lo - 1e-12
        # and the underlying laws agree
        assert amdahl.speedup(hi.f, n) >= amdahl.speedup(lo.f, n) - 1e-12
        assert hill_marty.speedup_symmetric(hi.f, n, r) >= (
            hill_marty.speedup_symmetric(lo.f, n, r) - 1e-12
        )

    def test_extended_never_exceeds_hill_marty(self, n, r, f, c, o, growth):
        """Merging overhead is a pure cost: Eq 4 <= Eq 2 pointwise."""
        params = AppParams(f=f, fcon_share=c, fored_share=o)
        ext = merging.speedup_symmetric(params, n, r, growth=growth)
        hm = hill_marty.speedup_symmetric(f, n, r)
        assert ext <= hm + 1e-12

    def test_extended_asymmetric_never_exceeds_hill_marty(
        self, n, r, f, c, o, growth
    ):
        """Asymmetric analogue: Eq 5 <= Eq 3 pointwise (r = 1 smalls)."""
        params = AppParams(f=f, fcon_share=c, fored_share=o)
        rl = max(float(r), 1.0)
        ext = merging.speedup_asymmetric(params, n, rl, r=1.0, growth=growth)
        hm = hill_marty.speedup_asymmetric(f, n, rl)
        assert ext <= hm + 1e-12


def test_growth_laws_never_discount_at_one_plus_cores():
    """grow(nc) >= 1 for nc >= 1 — the premise behind ext <= HM above."""
    rng = random.Random(_SEED + 1)
    laws = [resolve_growth(g) for g in ("linear", "log", "parallel")]
    laws += [PolynomialGrowth(rng.uniform(0.05, 3.0)) for _ in range(5)]
    for law in laws:
        for _ in range(200):
            nc = rng.uniform(1.0, 1024.0)
            assert law(nc) >= 1.0 - 1e-12, (law.name, nc)


def test_grid_is_deterministic():
    """The random grid is reproducible: reruns test the same points."""
    a = [p.values for p in _random_grid()]
    b = [p.values for p in _random_grid()]
    assert a == b


# ── vectorized kernels and the scalar API vs the frozen stack (Eqs 1–8) ──
#
# tests/differential/test_model_oracles.py sweeps random parameter points;
# the classes below pin the *shape* contract of repro.core.gridkernels on
# the same randomized grid: a broadcast kernel call and every per-point
# scalar call equal the frozen scalar stack (tests/core/reference_models.py)
# bit-exactly, singleton and empty axes behave, and the raw-array kernels
# accept the f = 1.0 / r = rl edges the scalar AppParams path forbids.


def _broadcast_cases(seed=_SEED + 2, n_cases=12):
    rng = random.Random(seed)
    cases = []
    for i in range(n_cases):
        n = 2 ** rng.randint(3, 9)
        fs = np.array([rng.uniform(0.01, 0.999) for _ in range(rng.randint(1, 5))])
        c = rng.uniform(0.0, 1.0)
        o = rng.uniform(0.0, 1.0)
        growth = _GROWTHS[rng.randrange(len(_GROWTHS))]
        cases.append(pytest.param(n, fs, c, o, growth, id=f"bcast{i}-n{n}"))
    return cases


@pytest.mark.parametrize("n,fs,c,o,growth", _broadcast_cases())
class TestGridMatchesScalarUnderBroadcast:
    """A 2-D ``(f, r)`` broadcast and the scalar call both equal the
    frozen scalar stack at every cell."""

    def test_eq1_amdahl(self, n, fs, c, o, growth):
        ps = np.array([1.0, 2.0, float(n)])
        grid = gridkernels.amdahl_speedup(fs[:, None], ps[None, :])
        assert grid.shape == (len(fs), len(ps))
        for i, f in enumerate(fs):
            for j, p in enumerate(ps):
                oracle = ref.amdahl.speedup(float(f), float(p))
                assert grid[i, j] == oracle
                assert amdahl.speedup(float(f), float(p)) == oracle

    def test_eq2_symmetric(self, n, fs, c, o, growth):
        sizes = merging.power_of_two_sizes(n)
        grid = gridkernels.hm_symmetric(fs[:, None], n, sizes)
        assert grid.shape == (len(fs), len(sizes))
        for i, f in enumerate(fs):
            for j, r in enumerate(sizes):
                oracle = ref.hill_marty.speedup_symmetric(float(f), n, float(r))
                assert grid[i, j] == oracle
                assert hill_marty.speedup_symmetric(float(f), n, float(r)) == oracle

    def test_eq3_asymmetric(self, n, fs, c, o, growth):
        sizes = merging.power_of_two_sizes(n)
        grid = gridkernels.hm_asymmetric(fs[:, None], n, sizes)
        for i, f in enumerate(fs):
            for j, rl in enumerate(sizes):
                oracle = ref.hill_marty.speedup_asymmetric(float(f), n, float(rl))
                assert grid[i, j] == oracle
                assert hill_marty.speedup_asymmetric(float(f), n, float(rl)) == oracle

    def test_eq4_merging_symmetric(self, n, fs, c, o, growth):
        sizes = merging.power_of_two_sizes(n)
        grid = gridkernels.merging_symmetric(fs[:, None], c, o, n, sizes, growth)
        for i, f in enumerate(fs):
            params = AppParams(f=float(f), fcon_share=c, fored_share=o)
            for j, r in enumerate(sizes):
                oracle = ref.merging.speedup_symmetric(
                    params, n, float(r), growth=growth)
                assert grid[i, j] == oracle
                assert merging.speedup_symmetric(
                    params, n, float(r), growth=growth) == oracle

    def test_eq5_merging_asymmetric(self, n, fs, c, o, growth):
        sizes = merging.power_of_two_sizes(n)
        grid = gridkernels.merging_asymmetric(
            fs[:, None], c, o, n, sizes, 1.0, growth)
        for i, f in enumerate(fs):
            params = AppParams(f=float(f), fcon_share=c, fored_share=o)
            for j, rl in enumerate(sizes):
                oracle = ref.merging.speedup_asymmetric(
                    params, n, float(rl), r=1.0, growth=growth)
                assert grid[i, j] == oracle
                assert merging.speedup_asymmetric(
                    params, n, float(rl), r=1.0, growth=growth) == oracle

    def test_eq6_and_7_communication(self, n, fs, c, o, growth):
        sizes = merging.power_of_two_sizes(n)
        sym = gridkernels.comm_symmetric(fs[:, None], c, n, sizes)
        asym = gridkernels.comm_asymmetric(fs[:, None], c, n, sizes)
        for i, f in enumerate(fs):
            params = AppParams(f=float(f), fcon_share=c, fored_share=o)
            for j, r in enumerate(sizes):
                sym_oracle = ref.communication.speedup_symmetric_comm(
                    params, n, float(r), PARALLEL_COMP, MESH_COMM)
                asym_oracle = ref.communication.speedup_asymmetric_comm(
                    params, n, float(r))
                assert sym[i, j] == sym_oracle
                assert asym[i, j] == asym_oracle
                assert communication.speedup_symmetric_comm(
                    params, n, float(r), PARALLEL_COMP, MESH_COMM) == sym_oracle
                assert communication.speedup_asymmetric_comm(
                    params, n, float(r)) == asym_oracle


class TestGridEdgeShapes:
    """Singleton axes broadcast away; size-0 axes yield size-0 results."""

    def test_singleton_axes_match_the_flat_call(self):
        sizes = merging.power_of_two_sizes(64)
        flat = gridkernels.merging_symmetric(0.97, 0.5, 0.8, 64, sizes, "log")
        nested = gridkernels.merging_symmetric(
            np.array([[0.97]]), np.array([[0.5]]), np.array([[0.8]]),
            64, sizes, "log")
        assert nested.shape == (1, len(sizes))
        assert np.array_equal(nested[0], flat)

    def test_empty_grids_yield_empty_results(self):
        empty = np.empty(0)
        assert gridkernels.amdahl_speedup(empty, 4.0).shape == (0,)
        assert gridkernels.hm_symmetric(0.5, 64, empty).shape == (0,)
        assert gridkernels.hm_asymmetric(0.5, 64, empty).shape == (0,)
        assert gridkernels.hm_asymmetric_grouped(0.5, 64, empty).shape == (0,)
        assert gridkernels.merging_symmetric(0.5, 0.5, 0.5, 64, empty).shape == (0,)
        assert gridkernels.merging_asymmetric(0.5, 0.5, 0.5, 64, empty).shape == (0,)
        assert gridkernels.comm_symmetric(0.5, 0.5, 64, empty).shape == (0,)
        assert gridkernels.comm_asymmetric(0.5, 0.5, 64, empty).shape == (0,)
        assert gridkernels.mesh_growcomm(empty).shape == (0,)

    def test_empty_parameter_grid_through_the_reducers(self):
        r, sp = gridkernels.best_symmetric_grid(np.empty(0), 0.5, 0.5, 64)
        assert r.shape == sp.shape == (0,)
        rl, r, sp = gridkernels.best_asymmetric_grid(np.empty(0), 0.5, 0.5, 64)
        assert rl.shape == r.shape == sp.shape == (0,)
        out = gridkernels.conclusions_grid(np.empty(0), 0.5, 0.5, 64)
        assert all(v.shape == (0,) for v in out.values())

    def test_out_of_range_inputs_still_raise_elementwise(self):
        with pytest.raises(ValueError):
            gridkernels.amdahl_speedup(np.array([0.5, 1.5]), 4.0)
        with pytest.raises(ValueError):
            gridkernels.hm_symmetric(0.5, 64, np.array([1.0, 128.0]))
        with pytest.raises(ValueError):
            gridkernels.merging_symmetric(0.5, 0.5, 0.5, 64, np.array([0.0]))


class TestGridAcceptsEdgesTheScalarPathForbids:
    """The raw-array kernels accept f = 1.0 and rl = r; AppParams cannot
    express the former, so the expectation comes from the Eq 2/3 forms
    whose serial term is exactly zero."""

    def test_f_equal_one_zeroes_the_serial_term(self):
        sizes = merging.power_of_two_sizes(64)
        with pytest.raises(ValueError):
            AppParams(f=1.0, fcon_share=0.5, fored_share=0.5)
        hm = gridkernels.hm_symmetric(1.0, 64, sizes)
        assert np.array_equal(
            gridkernels.merging_symmetric(1.0, 0.5, 0.5, 64, sizes, "log"), hm)
        assert np.array_equal(
            gridkernels.comm_symmetric(1.0, 0.5, 64, sizes), hm)
        # Eq 5 sums the parallel throughput in a different order than Eq 3,
        # so compare within the kernel: with no serial work the share
        # parameters cannot matter, bit-exactly.
        asym = gridkernels.merging_asymmetric(1.0, 0.5, 0.5, 64, sizes, 1.0)
        assert np.array_equal(
            gridkernels.merging_asymmetric(1.0, 0.0, 1.0, 64, sizes, 1.0), asym)
        assert np.allclose(asym, gridkernels.hm_asymmetric(1.0, 64, sizes),
                           rtol=1e-15)

    def test_rl_equal_r_matches_the_scalar_call(self):
        params = AppParams(f=0.97, fcon_share=0.4, fored_share=0.6)
        for size in (1.0, 4.0, 16.0):
            grid = gridkernels.merging_asymmetric(
                0.97, 0.4, 0.6, 64, size, size, "linear")
            scalar = merging.speedup_asymmetric(
                params, 64, size, r=size, growth="linear")
            oracle = ref.merging.speedup_asymmetric(
                params, 64, size, r=size, growth="linear")
            assert grid == oracle
            assert scalar == oracle
