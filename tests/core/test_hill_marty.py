"""Unit tests for the Hill–Marty models (Eqs 2–3)."""

import numpy as np
import pytest

from repro.core import amdahl, gridkernels, hill_marty
from repro.core.gridkernels import power_of_two_sizes


def best_asymmetric(f, n):
    """``(rl*, speedup*)`` maximising Eq 3 over power-of-two sizes."""
    sizes = power_of_two_sizes(n)
    sp = hill_marty.speedup_asymmetric(f, n, sizes)
    i = int(np.argmax(sp))
    return float(sizes[i]), float(sp[i])


class TestSymmetric:
    def test_unit_cores_recover_amdahl(self):
        # r = 1: n cores of 1 BCE, perf(1) = 1 → plain Amdahl with p = n.
        f, n = 0.97, 256
        assert hill_marty.speedup_symmetric(f, n, 1.0) == pytest.approx(
            amdahl.speedup(f, n)
        )

    def test_single_big_core(self):
        # r = n: one core, speedup = perf(n) regardless of f.
        assert hill_marty.speedup_symmetric(0.5, 256, 256.0) == pytest.approx(16.0)

    def test_paper_f99_optimum(self):
        # f = 0.99, n = 256 → max 79.7 at r = 2 (quoted in Section V.D.2)
        r, sp = hill_marty.best_symmetric(0.99, 256)
        assert r == 2.0
        assert sp == pytest.approx(79.7, abs=0.1)

    def test_higher_serial_fraction_favours_bigger_cores(self):
        # Hill-Marty's finding: "as the serial fraction increases, it will
        # tend to favor designs with fewer and more capable cores".
        r_small_serial, _ = hill_marty.best_symmetric(0.999, 256)
        r_large_serial, _ = hill_marty.best_symmetric(0.9, 256)
        assert r_large_serial > r_small_serial

    def test_vectorised_sweep(self):
        sizes = np.array([1.0, 4.0, 16.0, 64.0])
        out = hill_marty.speedup_symmetric(0.99, 256, sizes)
        assert out.shape == (4,)
        assert np.all(out > 0)

    def test_rejects_core_bigger_than_chip(self):
        with pytest.raises(ValueError):
            hill_marty.speedup_symmetric(0.9, 256, 512.0)


class TestAsymmetric:
    def test_rl_equals_n_is_single_big_core(self):
        assert hill_marty.speedup_asymmetric(0.9, 256, 256.0) == pytest.approx(16.0)

    def test_beats_symmetric_for_amdahl_workloads(self):
        # Hill-Marty's headline: ACMPs outperform CMPs under constant serial
        # sections (for any f strictly between 0 and 1).
        for f in (0.9, 0.99, 0.999):
            _, sym = hill_marty.best_symmetric(f, 256)
            _, asym = best_asymmetric(f, 256)
            assert asym > sym

    def test_paper_f99_optimum_magnitude(self):
        # Section V.D.2 quotes 162.3 for the Amdahl asymmetric prediction;
        # on the power-of-two grid the model peaks at 164.5 (rl = 32).
        rl, sp = best_asymmetric(0.99, 256)
        assert sp == pytest.approx(164.5, abs=0.1)
        assert rl == 32.0

    def test_grouped_form_with_unit_small_cores_matches_eq3(self):
        f, n = 0.99, 256
        rl = np.array([2.0, 16.0, 128.0])
        a = hill_marty.speedup_asymmetric(f, n, rl)
        b = gridkernels.hm_asymmetric_grouped(f, n, rl, r=1.0)
        assert np.allclose(a, b)

    def test_grouped_form_bigger_small_cores_reduce_parallel_throughput(self):
        f, n, rl = 0.999, 256, 16.0
        sp_r1 = gridkernels.hm_asymmetric_grouped(f, n, rl, r=1.0)
        sp_r4 = gridkernels.hm_asymmetric_grouped(f, n, rl, r=4.0)
        # under sqrt perf, aggregate parallel throughput falls with r
        assert sp_r1 > sp_r4

    def test_rejects_rl_bigger_than_chip(self):
        with pytest.raises(ValueError):
            hill_marty.speedup_asymmetric(0.9, 256, 300.0)
