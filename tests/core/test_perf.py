"""Unit tests for core performance laws perf(r)."""

import numpy as np
import pytest

from repro.core.perf import (
    SQRT_PERF,
    LinearPerf,
    PollackPerf,
    SqrtPerf,
    resolve_perf_law,
)


class TestSqrtPerf:
    def test_four_bce_core_is_twice_as_fast(self):
        # "a core made up of four BCEs performs twice as high as a single
        # BCE" (Section V.D)
        assert SQRT_PERF(4.0) == pytest.approx(2.0)

    def test_normalised_at_one(self):
        assert SQRT_PERF(1.0) == pytest.approx(1.0)

    def test_vectorised(self):
        out = SQRT_PERF(np.array([1.0, 4.0, 16.0, 64.0]))
        assert np.allclose(out, [1, 2, 4, 8])

    def test_rejects_nonpositive_r(self):
        with pytest.raises(ValueError):
            SQRT_PERF(0.0)
        with pytest.raises(ValueError):
            SQRT_PERF(np.array([1.0, -2.0]))


class TestPollackPerf:
    def test_half_exponent_matches_sqrt(self):
        law = PollackPerf(0.5)
        r = np.array([1.0, 2.0, 9.0, 256.0])
        assert np.allclose(law(r), SqrtPerf()(r))

    def test_larger_exponent_gives_faster_big_cores(self):
        assert PollackPerf(0.7)(16.0) > PollackPerf(0.5)(16.0)

    def test_rejects_superlinear_exponent(self):
        with pytest.raises(ValueError):
            PollackPerf(1.2)

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(ValueError):
            PollackPerf(0.0)


class TestLinearPerf:
    def test_identity(self):
        law = LinearPerf()
        assert law(8.0) == pytest.approx(8.0)


class TestResolve:
    def test_default_is_sqrt(self):
        assert resolve_perf_law(None).name == "sqrt"
        assert resolve_perf_law("sqrt").name == "sqrt"

    def test_passthrough_instance(self):
        law = LinearPerf()
        assert resolve_perf_law(law) is law

    def test_pollack_spec(self):
        law = resolve_perf_law("pollack:0.6")
        assert law(16.0) == pytest.approx(16.0**0.6)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            resolve_perf_law("cubic")
