"""Shared utilities: argument validation, ASCII table rendering, logging,
lowering numpy results to plain values."""

from repro.util.plain import plainify
from repro.util.tables import TextTable, format_float
from repro.util.validation import (
    check_fraction,
    check_positive,
    check_positive_int,
    ensure_array,
)

__all__ = [
    "TextTable",
    "format_float",
    "check_fraction",
    "check_positive",
    "check_positive_int",
    "ensure_array",
    "plainify",
]
