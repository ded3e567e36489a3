"""Banked DRAM with row-buffer locality.

The baseline machine charges a flat ``memory_latency`` per L2 miss.  With
``MachineConfig(dram="banked")`` misses go through this model instead:
memory is split into banks (low-order line-address interleaving), each
bank keeps its last-activated row open, and an access pays

* ``row_hit_latency``  when it falls in the open row (column access only);
* ``row_miss_latency`` when the bank must precharge + activate a new row.

Streaming scans (the parallel phase's point traversal) enjoy row hits;
the master's merge walk over p scattered partial buffers hops rows —
another mechanical source of the superlinear merge cost the paper
attributes to memory behaviour.
"""

from __future__ import annotations

from repro.util.validation import check_positive_int

__all__ = ["DramModel"]


class DramModel:
    """Open-row, bank-interleaved DRAM timing."""

    def __init__(
        self,
        n_banks: int = 8,
        row_bytes: int = 2048,
        line_size: int = 64,
        row_hit_latency: int = 60,
        row_miss_latency: int = 160,
    ):
        self.n_banks = check_positive_int(n_banks, "n_banks")
        self.row_bytes = check_positive_int(row_bytes, "row_bytes")
        self.line_size = check_positive_int(line_size, "line_size")
        self.row_hit_latency = check_positive_int(row_hit_latency, "row_hit_latency")
        self.row_miss_latency = check_positive_int(row_miss_latency, "row_miss_latency")
        if row_bytes % line_size != 0:
            raise ValueError(
                f"row_bytes {row_bytes} must be a multiple of line_size {line_size}"
            )
        self.lines_per_row = row_bytes // line_size
        self._open_rows: dict[int, int] = {}
        self.row_hits = 0
        self.row_misses = 0

    def bank_of(self, line_addr: int) -> int:
        """Bank selection: low-order line-address interleaving."""
        return line_addr % self.n_banks

    def row_of(self, line_addr: int) -> int:
        """Row index within the bank."""
        return (line_addr // self.n_banks) // self.lines_per_row

    def access(self, line_addr: int) -> int:
        """Latency of fetching one line; updates the bank's open row."""
        if line_addr < 0:
            raise ValueError(f"line_addr must be >= 0, got {line_addr}")
        bank = self.bank_of(line_addr)
        row = self.row_of(line_addr)
        if self._open_rows.get(bank) == row:
            self.row_hits += 1
            return self.row_hit_latency
        self._open_rows[bank] = row
        self.row_misses += 1
        return self.row_miss_latency
