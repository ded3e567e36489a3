"""Unit tests for the model-accuracy metrics (Fig 2(d))."""

import numpy as np
import pytest

from repro.core.accuracy import AccuracyReport, accuracy_ratio, evaluate_accuracy


class TestAccuracyRatio:
    def test_perfect_prediction(self):
        r = accuracy_ratio([1.0, 2.0], [1.0, 2.0])
        assert np.allclose(r, 1.0)

    def test_over_and_under(self):
        r = accuracy_ratio([1.14, 0.82], [1.0, 1.0])
        assert r[0] == pytest.approx(1.14)
        assert r[1] == pytest.approx(0.82)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            accuracy_ratio([1.0], [1.0, 2.0])

    def test_rejects_nonpositive_measurement(self):
        with pytest.raises(ValueError):
            accuracy_ratio([1.0], [0.0])


class TestAccuracyReport:
    def test_paper_margins(self):
        # paper: max overestimation +14% (fuzzy), max underestimation −18%
        # (kmeans)
        rep = AccuracyReport(cores=(2, 4, 8, 16), ratios=(1.14, 1.0, 0.9, 0.82))
        assert rep.max_overestimation == pytest.approx(0.14)
        assert rep.max_underestimation == pytest.approx(0.18)

    def test_within_tolerance(self):
        rep = AccuracyReport(cores=(2, 4), ratios=(1.1, 0.95))
        assert rep.within(0.12)
        assert not rep.within(0.05)

    def test_no_overestimation_when_all_below_one(self):
        rep = AccuracyReport(cores=(2,), ratios=(0.8,))
        assert rep.max_overestimation == 0.0


class TestEvaluate:
    def test_uses_common_core_counts_only(self):
        rep = evaluate_accuracy({2: 1.0, 4: 2.2, 32: 9.0}, {2: 1.0, 4: 2.0, 8: 4.0})
        assert rep.cores == (2, 4)
        assert rep.ratios[1] == pytest.approx(1.1)

    def test_empty_intersection_raises(self):
        with pytest.raises(ValueError):
            evaluate_accuracy({2: 1.0}, {4: 1.0})
