"""Unit tests for the text-table renderer."""

import pytest

from repro.util.tables import TextTable, format_float


class TestFormatFloat:
    def test_integers_render_bare(self):
        assert format_float(4.0) == "4"

    def test_small_values_scientific(self):
        assert "e" in format_float(1.5e-7)

    def test_nan(self):
        assert format_float(float("nan")) == "nan"

    def test_regular_value(self):
        assert format_float(3.14159) == "3.142"


class TestTextTable:
    def test_render_contains_all_cells(self):
        t = TextTable(title="Demo", columns=["app", "speedup"])
        t.add_row(["kmeans", 15.8])
        out = t.render()
        assert "Demo" in out and "kmeans" in out and "15.8" in out

    def test_row_width_mismatch_raises(self):
        t = TextTable(title="", columns=["a", "b"])
        with pytest.raises(ValueError):
            t.add_row([1])

    def test_column_alignment(self):
        t = TextTable(title="", columns=["x"])
        t.add_row(["longvalue"])
        lines = t.render().splitlines()
        widths = {len(line) for line in lines if line}
        assert len(widths) == 1  # all lines equal width

    def test_csv_escaping(self):
        t = TextTable(title="", columns=["a"])
        t.add_row(['has,comma'])
        assert '"has,comma"' in t.to_csv()

    def test_csv_header_first(self):
        t = TextTable(title="", columns=["col1", "col2"])
        t.add_row([1, 2])
        assert t.to_csv().splitlines()[0] == "col1,col2"

