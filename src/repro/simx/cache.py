"""Set-associative cache with LRU replacement.

Caches operate on *line addresses* (byte address >> log2(line_size)).  Each
cache tracks presence and per-line coherence state; the MESI protocol logic
itself lives in :mod:`repro.simx.coherence`, which drives these caches.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType

from repro.simx.config import CacheConfig

__all__ = ["MesiState", "CacheLine", "Cache", "AccessResult"]


class MesiState(Enum):
    """MESI coherence states."""

    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"


@dataclass
class CacheLine:
    """A resident cache line: its address tag and coherence state."""

    line_addr: int
    state: MesiState


@dataclass(frozen=True)
class AccessResult:
    """Outcome of a cache lookup/insert."""

    hit: bool
    state: MesiState
    evicted: "CacheLine | None" = None


#: every set of an idle cache: empty, and read-only, so a fill fails loudly
_NO_LINES = MappingProxyType({})


class Cache:
    """A set-associative, LRU cache indexed by line address.

    The structure is an OrderedDict per set: oldest entry first, so LRU
    eviction pops from the front and touches move lines to the back.

    An ``idle`` cache (the L1 of a core that runs no thread) builds no
    sets: each is one shared empty read-only mapping, so lookups miss and
    an insert raises ``TypeError``.
    """

    def __init__(self, config: CacheConfig, idle: bool = False):
        self.config = config
        self.n_sets = config.n_sets
        self.ways = config.ways
        self._sets: list[OrderedDict[int, CacheLine]] = (
            [_NO_LINES] * self.n_sets if idle
            else [OrderedDict() for _ in range(self.n_sets)]
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ── addressing ────────────────────────────────────────────────────────
    def set_index(self, line_addr: int) -> int:
        """Which set a line address maps to."""
        return line_addr % self.n_sets

    # ── queries (no state change) ─────────────────────────────────────────
    def lookup(self, line_addr: int) -> "CacheLine | None":
        """Return the resident line, or None; does not update LRU order."""
        line = self._sets[self.set_index(line_addr)].get(line_addr)
        if line is not None and line.state is MesiState.INVALID:
            return None
        return line

    def contains(self, line_addr: int) -> bool:
        """True when the line is resident in a valid state."""
        return self.lookup(line_addr) is not None

    # ── mutations ─────────────────────────────────────────────────────────
    def touch(self, line_addr: int) -> "CacheLine | None":
        """LRU-touch a resident line and return it (None on miss).

        Counts a hit or a miss.
        """
        s = self._sets[self.set_index(line_addr)]
        line = s.get(line_addr)
        if line is None or line.state is MesiState.INVALID:
            self.misses += 1
            return None
        s.move_to_end(line_addr)
        self.hits += 1
        return line

    def insert(self, line_addr: int, state: MesiState) -> AccessResult:
        """Install a line (after a miss), evicting LRU if the set is full.

        Returns the evicted line (if any) so the coherence layer can write
        back MODIFIED data and update the directory.
        """
        if state is MesiState.INVALID:
            raise ValueError("cannot insert a line in INVALID state")
        s = self._sets[self.set_index(line_addr)]
        existing = s.get(line_addr)
        if existing is not None and existing.state is not MesiState.INVALID:
            # upgrade in place
            existing.state = state
            s.move_to_end(line_addr)
            return AccessResult(hit=True, state=state)
        if existing is not None:
            del s[line_addr]  # replace the stale INVALID entry
        evicted = None
        # evict the oldest valid line if the set is at capacity
        while len(s) >= self.ways:
            _, old = s.popitem(last=False)
            if old.state is not MesiState.INVALID:
                evicted = old
                self.evictions += 1
                break
        line = CacheLine(line_addr=line_addr, state=state)
        s[line_addr] = line
        return AccessResult(hit=False, state=state, evicted=evicted)

    def invalidate(self, line_addr: int) -> bool:
        """Drop a line (remote write); True if it was present and valid."""
        s = self._sets[self.set_index(line_addr)]
        line = s.pop(line_addr, None)
        return line is not None and line.state is not MesiState.INVALID
