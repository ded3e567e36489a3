"""ASCII chart rendering.

Pure-text charts sized for a terminal: multi-series line charts on a
character grid with a y-axis scale, horizontal bar charts, and one-line
sparklines.  No external dependencies.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

__all__ = ["line_chart", "bar_chart"]

_SERIES_MARKS = "*o+x#@%&"


def _finite(values: Sequence[float]) -> list[float]:
    return [v for v in values if v == v and math.isfinite(v)]


def bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 50,
    title: str = "",
) -> str:
    """Horizontal bar chart, one row per (label, value)."""
    if len(labels) != len(values):
        raise ValueError("labels and values must have the same length")
    if not labels:
        raise ValueError("need at least one bar")
    if width < 1:
        raise ValueError("width must be >= 1")
    peak = max(_finite(values) or [0.0])
    label_w = max(len(str(lb)) for lb in labels)
    lines = [title] if title else []
    for lb, v in zip(labels, values):
        filled = 0 if peak <= 0 else int(round(width * max(v, 0.0) / peak))
        lines.append(f"{str(lb):>{label_w}} | {'█' * filled}{' ' * (width - filled)} {v:g}")
    return "\n".join(lines)


def line_chart(
    x: Sequence[float],
    series: Mapping[str, Sequence[float]],
    width: int = 64,
    height: int = 16,
    title: str = "",
    logx: bool = False,
) -> str:
    """Multi-series line chart on a character grid.

    Each series gets a marker from ``* o + x ...``; NaNs are skipped.
    ``logx`` spaces the x axis logarithmically (the paper's sweeps are
    powers of two).
    """
    if not series:
        raise ValueError("need at least one series")
    xs = [float(v) for v in x]
    if len(xs) < 2:
        raise ValueError("need at least two x values")
    for name, ys in series.items():
        if len(ys) != len(xs):
            raise ValueError(f"series {name!r} length {len(ys)} != x length {len(xs)}")
    if logx and any(v <= 0 for v in xs):
        raise ValueError("logx requires positive x values")
    if width < 8 or height < 4:
        raise ValueError("chart must be at least 8x4")

    tx = [math.log2(v) for v in xs] if logx else xs
    x_lo, x_hi = min(tx), max(tx)
    all_y = _finite([v for ys in series.values() for v in ys])
    if not all_y:
        raise ValueError("no finite y values")
    y_lo = min(all_y + [0.0])
    y_hi = max(all_y)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    grid = [[" "] * width for _ in range(height)]
    for si, (name, ys) in enumerate(series.items()):
        mark = _SERIES_MARKS[si % len(_SERIES_MARKS)]
        for xi, yv in zip(tx, ys):
            if yv != yv or not math.isfinite(yv):
                continue
            col = int(round((xi - x_lo) / (x_hi - x_lo) * (width - 1)))
            row = int(round((yv - y_lo) / (y_hi - y_lo) * (height - 1)))
            grid[height - 1 - row][col] = mark

    lines = [title] if title else []
    for i, row in enumerate(grid):
        if i == 0:
            label = f"{y_hi:8.4g} ┤"
        elif i == height - 1:
            label = f"{y_lo:8.4g} ┤"
        else:
            label = " " * 8 + " │"
        lines.append(label + "".join(row))
    axis = " " * 9 + "└" + "─" * width
    lines.append(axis)
    x_left = f"{xs[0]:g}"
    x_right = f"{xs[-1]:g}"
    pad = width - len(x_left) - len(x_right)
    lines.append(" " * 10 + x_left + " " * max(1, pad) + x_right)
    legend = "   ".join(
        f"{_SERIES_MARKS[i % len(_SERIES_MARKS)]} {name}"
        for i, name in enumerate(series)
    )
    lines.append(" " * 10 + legend)
    return "\n".join(lines)
