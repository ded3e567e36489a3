"""Shared utilities: argument validation, ASCII table rendering, logging,
lowering numpy results to plain values."""

from repro.util.plain import plainify
from repro.util.tables import TextTable, format_float, render_series
from repro.util.validation import (
    check_fraction,
    check_positive,
    check_positive_int,
    check_power_of_two,
    ensure_array,
)

__all__ = [
    "TextTable",
    "format_float",
    "render_series",
    "check_fraction",
    "check_positive",
    "check_positive_int",
    "check_power_of_two",
    "ensure_array",
    "plainify",
]
