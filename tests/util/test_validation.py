"""Unit tests for argument-validation helpers."""

import numpy as np
import pytest

from repro.util.validation import (
    check_fraction,
    check_positive,
    check_positive_int,
    ensure_array,
)


class TestCheckFraction:
    def test_accepts_endpoints_inclusive(self):
        assert check_fraction(0.0, "x") == 0.0
        assert check_fraction(1.0, "x") == 1.0

    def test_rejects_endpoints_exclusive(self):
        with pytest.raises(ValueError):
            check_fraction(0.0, "x", inclusive=False)
        with pytest.raises(ValueError):
            check_fraction(1.0, "x", inclusive=False)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            check_fraction(float("nan"), "x")

    def test_error_names_parameter(self):
        with pytest.raises(ValueError, match="myparam"):
            check_fraction(2.0, "myparam")


class TestCheckPositive:
    def test_zero_policy(self):
        assert check_positive(0.0, "x", allow_zero=True) == 0.0
        with pytest.raises(ValueError):
            check_positive(0.0, "x")

    def test_negative_rejected_either_way(self):
        with pytest.raises(ValueError):
            check_positive(-1.0, "x", allow_zero=True)


class TestCheckPositiveInt:
    def test_accepts_numpy_integers(self):
        assert check_positive_int(np.int64(5), "x") == 5

    def test_accepts_integral_floats(self):
        assert check_positive_int(4.0, "x") == 4

    def test_rejects_fractional_floats(self):
        with pytest.raises(TypeError):
            check_positive_int(4.5, "x")

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive_int(True, "x")

    def test_minimum(self):
        with pytest.raises(ValueError):
            check_positive_int(1, "x", minimum=2)


class TestEnsureArray:
    def test_scalar_becomes_1d(self):
        arr = ensure_array(3.0, "x")
        assert arr.shape == (1,)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            ensure_array([1.0, float("nan")], "x")

    def test_preserves_values(self):
        arr = ensure_array([1, 2, 3], "x")
        assert np.allclose(arr, [1.0, 2.0, 3.0])
        assert arr.dtype == np.float64
