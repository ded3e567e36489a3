"""Unit tests for speedup-curve fitting."""

import numpy as np
import pytest

from repro.core import measured as mm
from repro.core.fitting import fit_amdahl, fit_serial_growth, to_measured_params
from repro.core.params import TABLE2, MeasuredParams


def synthetic_curve(params: MeasuredParams, cores):
    p = np.asarray(cores, dtype=np.float64)
    return p, np.asarray(mm.speedup_extended(params, p))


CORES = [1, 2, 4, 8, 16, 32, 64]


class TestFitAmdahl:
    def test_exact_amdahl_curve(self):
        f = 0.99
        p = np.array(CORES, dtype=float)
        sp = 1.0 / ((1 - f) + f / p)
        assert fit_amdahl(p, sp) == pytest.approx(0.01, rel=1e-9)

    def test_perfect_scaling_gives_zero_serial(self):
        p = np.array([1.0, 2.0, 4.0])
        assert fit_amdahl(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_amdahl([1, 2], [1, 2])  # too few points
        with pytest.raises(ValueError):
            fit_amdahl([1, 2, 4], [1, -1, 2])


@pytest.mark.usefixtures("needs_scipy")
class TestFitSerialGrowth:
    def test_roundtrip_linear_growth(self):
        k = TABLE2["kmeans"]
        p, sp = synthetic_curve(k, CORES)
        fit = fit_serial_growth(p, sp)
        assert fit.serial == pytest.approx(k.s, rel=0.05)
        assert fit.alpha == pytest.approx(1.0, abs=0.1)
        assert fit.slope == pytest.approx(k.fcred * k.fored_rel, rel=0.1)
        assert fit.residual < 1e-3

    def test_roundtrip_superlinear_growth(self):
        h = TABLE2["hop"]
        p, sp = synthetic_curve(h, CORES)
        fit = fit_serial_growth(p, sp)
        assert fit.alpha == pytest.approx(h.growth_alpha, abs=0.15)

    def test_fix_alpha(self):
        k = TABLE2["kmeans"]
        p, sp = synthetic_curve(k, CORES)
        fit = fit_serial_growth(p, sp, fix_alpha=1.0)
        assert fit.alpha == 1.0
        assert fit.slope == pytest.approx(k.fcred * k.fored_rel, rel=0.05)

    def test_predict_matches_input_curve(self):
        k = TABLE2["fuzzy"]
        p, sp = synthetic_curve(k, CORES)
        fit = fit_serial_growth(p, sp)
        assert np.allclose(fit.predict(p), sp, rtol=0.02)

    def test_peak_locates_maximum(self):
        k = TABLE2["kmeans"]
        p, sp = synthetic_curve(k, CORES)
        fit = fit_serial_growth(p, sp)
        peak_p, peak_sp = fit.peak()
        model_p, model_sp = mm.peak_core_count(k, max_cores=8192)
        assert peak_p == pytest.approx(model_p, rel=0.1)
        assert peak_sp == pytest.approx(model_sp, rel=0.05)

    def test_robust_to_measurement_noise(self):
        # with 1% noise the tiny constant serial fraction (0.015%) is not
        # identifiable, but the *growth slope* — which drives the paper's
        # conclusions — still is, and so is the predicted peak location.
        k = TABLE2["kmeans"]
        p, sp = synthetic_curve(k, CORES)
        rng = np.random.default_rng(0)
        noisy = sp * (1 + rng.normal(0, 0.01, sp.shape))
        fit = fit_serial_growth(p, noisy, fix_alpha=1.0)
        assert fit.slope == pytest.approx(k.fcred * k.fored_rel, rel=0.5)
        clean_peak, _ = mm.peak_core_count(k, max_cores=8192)
        fitted_peak, _ = fit.peak()
        assert 0.5 * clean_peak < fitted_peak < 2.0 * clean_peak

    def test_serial_time_at_one_core(self):
        k = TABLE2["kmeans"]
        p, sp = synthetic_curve(k, CORES)
        fit = fit_serial_growth(p, sp)
        assert fit.serial_time(1.0) == pytest.approx(fit.serial)


@pytest.mark.usefixtures("needs_scipy")
class TestToMeasuredParams:
    def test_roundtrip_through_record(self):
        k = TABLE2["kmeans"]
        p, sp = synthetic_curve(k, CORES)
        fit = fit_serial_growth(p, sp, fix_alpha=1.0)
        rec = to_measured_params(fit, fred_share=k.fred_share, name="refit")
        assert rec.fored_rel == pytest.approx(k.fored_rel, rel=0.1)
        # the refitted record predicts the same curve
        assert np.allclose(
            np.asarray(mm.speedup_extended(rec, p)), sp, rtol=0.03
        )

    def test_requires_interior_share(self):
        k = TABLE2["kmeans"]
        p, sp = synthetic_curve(k, CORES)
        fit = fit_serial_growth(p, sp)
        with pytest.raises(ValueError):
            to_measured_params(fit, fred_share=0.0)
