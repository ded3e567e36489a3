"""Unit tests for Amdahl's Law (Eq 1)."""

import numpy as np
import pytest

from repro.core import amdahl


class TestSpeedup:
    def test_serial_application_never_speeds_up(self):
        assert amdahl.speedup(0.0, 64) == pytest.approx(1.0)

    def test_fully_parallel_application_scales_linearly(self):
        assert amdahl.speedup(1.0, 64) == pytest.approx(64.0)

    def test_single_processor_is_identity(self):
        assert amdahl.speedup(0.7, 1) == pytest.approx(1.0)

    def test_textbook_value(self):
        # f = 0.95 on 20 processors: 1 / (0.05 + 0.95/20) = 10.256...
        assert amdahl.speedup(0.95, 20) == pytest.approx(1 / (0.05 + 0.95 / 20))

    def test_paper_one_percent_serial_limits_near_100(self):
        # "even ... applications with a serial section ... one percent will
        # face a scalability limit at around one hundred cores" (Section I)
        assert amdahl.speedup_limit(0.99) == pytest.approx(100.0)

    def test_vectorised_over_processors(self):
        p = np.array([1, 2, 4, 8])
        out = amdahl.speedup(0.9, p)
        assert out.shape == (4,)
        assert out[0] == pytest.approx(1.0)
        assert np.all(np.diff(out) > 0)

    def test_monotonic_in_f(self):
        assert amdahl.speedup(0.99, 32) > amdahl.speedup(0.9, 32)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            amdahl.speedup(1.5, 4)
        with pytest.raises(ValueError):
            amdahl.speedup(-0.1, 4)

    def test_rejects_bad_processor_count(self):
        with pytest.raises(ValueError):
            amdahl.speedup(0.5, 0)


class TestSpeedupLimit:
    def test_limit_infinite_for_fully_parallel(self):
        assert amdahl.speedup_limit(1.0) == float("inf")

    def test_limit_is_supremum_of_speedup(self):
        f = 0.98
        assert amdahl.speedup(f, 10**9) < amdahl.speedup_limit(f)
        assert amdahl.speedup(f, 10**9) == pytest.approx(amdahl.speedup_limit(f), rel=1e-6)
