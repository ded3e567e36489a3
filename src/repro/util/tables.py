"""Plain-text table rendering for experiment reports.

The benchmark harness regenerates the paper's tables and figure series as
text; this module provides the shared renderer so every experiment prints in
a uniform, diff-friendly format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

__all__ = ["TextTable", "format_float"]


def format_float(value: float, *, digits: int = 4) -> str:
    """Format a float compactly: integers without trailing zeros, small
    fractions in scientific notation, everything else fixed-point."""
    if value != value:  # NaN
        return "nan"
    if value == int(value) and abs(value) < 1e12:
        return str(int(value))
    if value != 0 and abs(value) < 10 ** (-digits):
        return f"{value:.{digits}e}"
    return f"{value:.{digits}g}"


@dataclass
class TextTable:
    """An ASCII table with a title, column headers, and typed rows.

    Example
    -------
    >>> t = TextTable(title="demo", columns=["app", "speedup"])
    >>> t.add_row(["kmeans", 15.8])
    >>> print(t.render())  # doctest: +SKIP
    """

    title: str
    columns: Sequence[str]
    rows: list[list[str]] = field(default_factory=list)

    def add_row(self, values: Iterable[object]) -> None:
        """Append a row; floats are formatted via :func:`format_float`."""
        row = [
            format_float(v) if isinstance(v, float) else str(v)
            for v in values
        ]
        if len(row) != len(self.columns):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(self.columns)} columns"
            )
        self.rows.append(row)

    def render(self) -> str:
        """Render the table with box-drawing rules sized to the content."""
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
        lines = []
        if self.title:
            lines.append(self.title)
        lines.append(sep)
        lines.append(
            "|" + "|".join(f" {c:<{w}} " for c, w in zip(self.columns, widths)) + "|"
        )
        lines.append(sep)
        for row in self.rows:
            lines.append(
                "|" + "|".join(f" {c:<{w}} " for c, w in zip(row, widths)) + "|"
            )
        lines.append(sep)
        return "\n".join(lines)

    def to_csv(self) -> str:
        """Render as CSV (header row first)."""
        def esc(cell: str) -> str:
            if "," in cell or '"' in cell:
                return '"' + cell.replace('"', '""') + '"'
            return cell

        out = [",".join(esc(c) for c in self.columns)]
        out.extend(",".join(esc(c) for c in row) for row in self.rows)
        return "\n".join(out)
