"""Unit tests for ASCII chart rendering."""

import math

import pytest

from repro.viz.ascii_charts import bar_chart, line_chart


class TestBarChart:
    def test_peak_bar_is_full_width(self):
        out = bar_chart(["a", "b"], [5.0, 10.0], width=20)
        lines = out.splitlines()
        assert lines[1].count("█") == 20
        assert lines[0].count("█") == 10

    def test_labels_aligned(self):
        out = bar_chart(["x", "long-label"], [1.0, 2.0])
        lines = out.splitlines()
        assert lines[0].index("|") == lines[1].index("|")

    def test_title(self):
        assert bar_chart(["a"], [1.0], title="T").splitlines()[0] == "T"

    def test_validation(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0, 2.0])
        with pytest.raises(ValueError):
            bar_chart([], [])
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0], width=0)


class TestLineChart:
    def test_contains_markers_and_legend(self):
        out = line_chart(
            [1, 2, 4, 8], {"up": [1, 2, 3, 4], "down": [4, 3, 2, 1]}, logx=True
        )
        assert "*" in out and "o" in out
        assert "* up" in out and "o down" in out

    def test_y_scale_labels(self):
        out = line_chart([1, 2, 3], {"s": [0.0, 5.0, 10.0]})
        assert "10" in out
        assert "0 " in out

    def test_peak_marker_on_top_row(self):
        out = line_chart([1, 2, 3], {"s": [1.0, 9.0, 1.0]}, height=8)
        top_row = out.splitlines()[0]
        assert "*" in top_row

    def test_skips_nan_points(self):
        out = line_chart([1, 2, 3], {"s": [1.0, float("nan"), 3.0]})
        grid_rows = out.splitlines()[:-3]  # drop axis, x labels, legend
        assert sum(row.count("*") for row in grid_rows) == 2

    def test_logx_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            line_chart([0, 1, 2], {"s": [1, 2, 3]}, logx=True)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            line_chart([1, 2], {"s": [1, 2, 3]})

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            line_chart([1, 2], {"s": [1, 2]}, width=4)

    def test_all_nan_rejected(self):
        with pytest.raises(ValueError):
            line_chart([1, 2], {"s": [math.nan, math.nan]})
