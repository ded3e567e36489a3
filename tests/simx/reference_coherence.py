"""A frozen copy of the MESI controller, as a test-only protocol oracle.

Both simulator engines share one :class:`repro.simx.coherence.CoherenceController`,
so the two-engine identity harness cannot see a change to the protocol
itself.  This module keeps the controller exactly as it stood before its
hot paths were streamlined: every L1 access goes through
:class:`~repro.simx.cache.Cache`'s public methods and every directory
lookup through ``_entry``.  ``tests/simx/test_coherence_oracle.py`` drives
it and the live controller with the same random streams and demands
identical latencies, counters, L1 contents and directory state.

Do not optimise or "fix" this file: its value is that it does not change.
"""

from __future__ import annotations

from repro.simx.cache import Cache, MesiState
from repro.simx.coherence import CoherenceStats, DirectoryEntry
from repro.simx.config import MachineConfig
from repro.simx.dram import DramModel
from repro.simx.interconnect import Interconnect, build_interconnect

__all__ = ["ReferenceCoherenceController", "ReferenceCache"]


class ReferenceCache(Cache):
    """The L1 with ``set_state``, the directory callback this controller
    was written against.  The live controller sets ``CacheLine.state``
    directly, so the method lives here, with the only code that calls it."""

    def set_state(self, line_addr: int, state: MesiState) -> None:
        """Change a resident line's coherence state (directory callbacks)."""
        s = self._sets[self.set_index(line_addr)]
        line = s.get(line_addr)
        if line is None:
            if state is MesiState.INVALID:
                return  # already gone
            raise KeyError(f"line {line_addr:#x} not resident")
        if state is MesiState.INVALID:
            del s[line_addr]
        else:
            line.state = state


class ReferenceCoherenceController:
    """The MESI controller as first written, through Cache's public API."""

    def __init__(self, config: MachineConfig, interconnect: "Interconnect | None" = None):
        self.config = config
        self.l1s = [ReferenceCache(config.l1d) for _ in range(config.n_cores)]
        self.directory: dict[int, DirectoryEntry] = {}
        self.interconnect = interconnect or build_interconnect(config)
        self.stats = CoherenceStats()
        self.dram: "DramModel | None" = None
        if config.dram == "banked":
            self.dram = DramModel(
                n_banks=config.dram_banks,
                row_bytes=config.dram_row_bytes,
                line_size=config.line_size,
                row_hit_latency=config.dram_row_hit_latency,
                row_miss_latency=config.dram_row_miss_latency,
            )

    def _memory_latency(self, line: int) -> int:
        """Latency of one main-memory line fetch (flat or banked)."""
        if self.dram is None:
            return self.config.memory_latency
        return self.dram.access(line)

    # ── helpers ───────────────────────────────────────────────────────────
    def line_of(self, addr: int) -> int:
        """Byte address → line address."""
        return addr // self.config.line_size

    def _entry(self, line: int) -> DirectoryEntry:
        e = self.directory.get(line)
        if e is None:
            e = DirectoryEntry()
            self.directory[line] = e
        return e

    def _handle_l1_eviction(self, core: int, line: int, state: MesiState) -> int:
        """Directory bookkeeping and latency for an evicted L1 line."""
        e = self._entry(line)
        latency = 0
        if state is MesiState.MODIFIED:
            # dirty writeback into L2; writebacks drain from the store
            # buffer in the background, so they use uncontended timing
            self.stats.writebacks += 1
            e.in_l2 = True
            latency += self.interconnect.request_latency(core, line)
        if e.owner == core:
            e.owner = None
        e.sharers.discard(core)
        return latency

    def _install_l1(self, core: int, line: int, state: MesiState) -> int:
        """Insert into the core's L1, handling any eviction; returns extra
        latency caused by a dirty eviction."""
        result = self.l1s[core].insert(line, state)
        latency = 0
        if result.evicted is not None:
            latency += self._handle_l1_eviction(
                core, result.evicted.line_addr, result.evicted.state
            )
        e = self._entry(line)
        if state in (MesiState.MODIFIED, MesiState.EXCLUSIVE):
            e.owner = core
            e.sharers = {core}
        else:
            e.owner = None
            e.sharers.add(core)
        return latency

    def _invalidate_remotes(self, line: int, keep: int) -> int:
        """Invalidate every remote copy of a line; returns total latency."""
        e = self._entry(line)
        latency = 0
        victims = (e.sharers | ({e.owner} if e.owner is not None else set())) - {keep}
        for core in sorted(victims):
            l1 = self.l1s[core]
            had_line = l1.lookup(line)
            if had_line is not None and had_line.state is MesiState.MODIFIED:
                # dirty data flows to the requester / L2 first
                self.stats.writebacks += 1
                e.in_l2 = True
            if l1.invalidate(line):
                self.stats.invalidations += 1
                latency += self.config.invalidation_latency
        e.sharers &= {keep}
        if e.owner is not None and e.owner != keep:
            e.owner = None
        return latency

    # ── protocol entry points ────────────────────────────────────────────
    def read(self, core: int, addr: int, now: int = 0) -> int:
        """Perform a load; returns its latency in cycles."""
        self.stats.reads += 1
        line = self.line_of(addr)
        l1 = self.l1s[core]
        cfg = self.config

        if l1.touch(line) is not None:
            self.stats.l1_hits += 1
            return cfg.l1d.hit_latency

        self.stats.l1_misses += 1
        latency = cfg.l1d.hit_latency + self.interconnect.request_latency(core, line, now)
        e = self._entry(line)

        if e.owner is not None and e.owner != core:
            owner_line = self.l1s[e.owner].lookup(line)
            if owner_line is not None and owner_line.state is MesiState.MODIFIED:
                # cache-to-cache transfer; owner writes back and both share
                self.stats.cache_to_cache += 1
                self.stats.writebacks += 1
                latency += cfg.remote_l1_latency
                latency += self.interconnect.core_to_core_latency(core, e.owner)
                self.l1s[e.owner].set_state(line, MesiState.SHARED)
                e.in_l2 = True
                e.sharers = {e.owner}
                e.owner = None
                latency += self._install_l1(core, line, MesiState.SHARED)
                return latency
            # remote E: downgrade silently, serve from L2/remote
            if owner_line is not None:
                self.l1s[e.owner].set_state(line, MesiState.SHARED)
            e.sharers = ({e.owner} if e.owner is not None else set()) | set(e.sharers)
            e.owner = None

        if e.in_l2:
            self.stats.l2_hits += 1
            latency += cfg.l2.hit_latency
        else:
            self.stats.memory_fetches += 1
            latency += cfg.l2.hit_latency + self._memory_latency(line)
            e.in_l2 = True

        if e.sharers or cfg.coherence_protocol == "msi":
            new_state = MesiState.SHARED  # MSI has no Exclusive state
        else:
            new_state = MesiState.EXCLUSIVE
        latency += self._install_l1(core, line, new_state)
        return latency

    def write(self, core: int, addr: int, now: int = 0) -> int:
        """Perform a store; returns its latency in cycles."""
        self.stats.writes += 1
        line = self.line_of(addr)
        l1 = self.l1s[core]
        cfg = self.config
        resident = l1.touch(line)

        if resident is not None:
            self.stats.l1_hits += 1
            if resident.state is MesiState.MODIFIED:
                return cfg.l1d.hit_latency
            if resident.state is MesiState.EXCLUSIVE:
                l1.set_state(line, MesiState.MODIFIED)
                e = self._entry(line)
                e.owner = core
                e.sharers = {core}
                return cfg.l1d.hit_latency
            # SHARED → upgrade: invalidate the other sharers
            self.stats.upgrades += 1
            latency = cfg.l1d.hit_latency + self.interconnect.request_latency(core, line, now)
            latency += self._invalidate_remotes(line, keep=core)
            l1.set_state(line, MesiState.MODIFIED)
            e = self._entry(line)
            e.owner = core
            e.sharers = {core}
            return latency

        # write miss: read-for-ownership
        self.stats.l1_misses += 1
        latency = cfg.l1d.hit_latency + self.interconnect.request_latency(core, line, now)
        e = self._entry(line)
        had_remote_m = e.owner is not None and e.owner != core and (
            (rl := self.l1s[e.owner].lookup(line)) is not None
            and rl.state is MesiState.MODIFIED
        )
        if had_remote_m:
            self.stats.cache_to_cache += 1
            latency += cfg.remote_l1_latency
            latency += self.interconnect.core_to_core_latency(core, e.owner)
        elif e.in_l2:
            self.stats.l2_hits += 1
            latency += cfg.l2.hit_latency
        else:
            self.stats.memory_fetches += 1
            latency += cfg.l2.hit_latency + self._memory_latency(line)
            e.in_l2 = True
        latency += self._invalidate_remotes(line, keep=core)
        latency += self._install_l1(core, line, MesiState.MODIFIED)
        return latency
