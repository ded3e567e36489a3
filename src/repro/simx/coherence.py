"""Directory-based MESI coherence across private L1s and a shared L2.

The :class:`CoherenceController` owns the private L1s and the directory; the
shared L2 is modelled by the directory's sticky ``in_l2`` bit (set on the
first fill or writeback, never cleared: the L2 is assumed large enough to
keep every line the program touches, so it holds no arrays).  The batch
engine (:mod:`repro.simx.batch`) keeps L2 residency for thread-private
lines itself, and sets a private line's entry from it only before this
controller runs an access to that line.  The
core timing model calls :meth:`read` / :meth:`write` with a core id and a
line address and receives the access latency, with every protocol action
(upgrades, invalidations, cache-to-cache transfers, writebacks) both applied
to cache state and charged to the latency.

Protocol summary (standard MESI, directory at the L2):

==========  =======================  =========================================
requestor   remote state             action
==========  =======================  =========================================
read        nobody has it            fetch from memory (or L2), install E
read        remote M                 remote writeback + transfer, both S
read        remote E/S               fetch from L2, install S, remote → S
write       nobody has it            fetch exclusive, install M
write       remote M                 transfer + invalidate owner, install M
write       remote E/S               invalidate all sharers, install M
write hit   local S                  upgrade: invalidate other sharers → M
write hit   local E                  silent upgrade → M
==========  =======================  =========================================
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field

from repro.simx.cache import Cache, CacheLine, MesiState
from repro.simx.config import MachineConfig
from repro.simx.dram import DramModel
from repro.simx.interconnect import Interconnect, build_interconnect

__all__ = ["CoherenceController", "CoherenceStats", "DirectoryEntry"]

_MODIFIED, _EXCLUSIVE, _SHARED, _INVALID = (
    MesiState.MODIFIED, MesiState.EXCLUSIVE, MesiState.SHARED, MesiState.INVALID,
)


@dataclass
class DirectoryEntry:
    """Directory knowledge about one line: which L1s hold it and how."""

    sharers: set[int] = field(default_factory=set)
    owner: "int | None" = None  # core holding M/E, None when shared/uncached
    in_l2: bool = False


@dataclass
class CoherenceStats:
    """Protocol event counters (per machine run)."""

    reads: int = 0
    writes: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    l2_hits: int = 0
    memory_fetches: int = 0
    cache_to_cache: int = 0
    invalidations: int = 0
    upgrades: int = 0
    writebacks: int = 0

    @classmethod
    def total(cls, buckets) -> "CoherenceStats":
        """The field-by-field sum of ``buckets``, e.g. a run's per-phase
        counters."""
        return cls(*map(sum, zip(*map(astuple, buckets))))


class CoherenceController:
    """All caches plus the MESI directory for one simulated machine.

    Both engines call :meth:`read` / :meth:`write` for every access the
    protocol must see, so the entry points test L1 hits, read an owner's
    copy and drop remote copies on the L1 sets directly (the
    ``OrderedDict`` per set that :class:`Cache` keeps) and look each
    directory entry up once per access.  The protocol is pinned by
    ``tests/simx/test_coherence_oracle.py`` against a frozen copy of the
    controller written over :class:`Cache`'s public methods.
    """

    def __init__(self, config: MachineConfig, interconnect: "Interconnect | None" = None,
                 live_cores: "int | None" = None):
        self.config = config
        # only the first ``live_cores`` cores run threads (all of them by
        # default); the rest get idle L1s, which build no sets
        live = config.n_cores if live_cores is None else live_cores
        self.l1s = [Cache(config.l1d, idle=core >= live) for core in range(config.n_cores)]
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
        # per-access constants, read once
        self._line_size = config.line_size
        self._hit_lat = config.l1d.hit_latency
        self._l2_lat = config.l2.hit_latency
        self._remote_lat = config.remote_l1_latency
        self._inv_lat = config.invalidation_latency
        self._msi = config.coherence_protocol == "msi"
        self._l1_sets = [l1._sets for l1 in self.l1s]
        self._n_sets = config.l1d.n_sets
        self._ways = config.l1d.ways

    def _memory_latency(self, line: int) -> int:
        """Latency of one main-memory line fetch (flat or banked)."""
        if self.dram is None:
            return self.config.memory_latency
        return self.dram.access(line)

    # ── helpers ───────────────────────────────────────────────────────────
    def _entry(self, line: int) -> DirectoryEntry:
        e = self.directory.get(line)
        if e is None:
            e = DirectoryEntry()
            self.directory[line] = e
        return e

    def _handle_l1_eviction(self, core: int, victim: CacheLine) -> int:
        """Directory bookkeeping and latency for an evicted L1 line."""
        e = self._entry(victim.line_addr)
        latency = 0
        if victim.state is _MODIFIED:
            # dirty writeback into L2; writebacks drain from the store
            # buffer in the background, so they use uncontended timing
            self.stats.writebacks += 1
            e.in_l2 = True
            latency += self.interconnect.request_latency(core, victim.line_addr)
        if e.owner == core:
            e.owner = None
        e.sharers.discard(core)
        return latency

    def _install_l1(self, core: int, line: int, state: MesiState, e: DirectoryEntry) -> int:
        """Fill a line the core just missed on into its L1 and record it in
        the line's directory entry ``e``; returns extra latency caused by
        a dirty eviction.

        The fill is :meth:`Cache.insert` on the set itself, less its
        hit case (the caller missed): drop any stale INVALID entry, evict
        the set's LRU valid line if the set is full, append the line."""
        s = self._l1_sets[core][line % self._n_sets]
        s.pop(line, None)
        latency = 0
        while len(s) >= self._ways:
            _, old = s.popitem(last=False)
            if old.state is not _INVALID:
                self.l1s[core].evictions += 1
                latency = self._handle_l1_eviction(core, old)
                break
        s[line] = CacheLine(line, state)
        if state is _SHARED:
            e.owner = None
            e.sharers.add(core)
        else:
            e.owner = core
            e.sharers = {core}
        return latency

    def _invalidate_remotes(self, line: int, keep: int, e: DirectoryEntry) -> int:
        """Invalidate every remote copy of a line (directory entry ``e``);
        returns total latency."""
        owner = e.owner
        sharers = e.sharers
        if (owner is None or owner == keep) and (
            not sharers or (len(sharers) == 1 and keep in sharers)
        ):
            return 0  # no remote copy: nothing to invalidate
        victims = set(sharers)
        if owner is not None:
            victims.add(owner)
        victims.discard(keep)
        stats = self.stats
        slot = line % self._n_sets
        latency = 0
        # each copy's invalidation is independent and the tallies are
        # sums, so the victims go in any order
        for core in victims:
            ln = self._l1_sets[core][slot].pop(line, None)
            if ln is not None and ln.state is not _INVALID:
                if ln.state is _MODIFIED:
                    # dirty data flows to the requester / L2 first
                    stats.writebacks += 1
                    e.in_l2 = True
                stats.invalidations += 1
                latency += self._inv_lat
        if keep in sharers:
            e.sharers = {keep}
        else:
            sharers.clear()
        if owner is not None and owner != keep:
            e.owner = None
        return latency

    def _fill_latency(self, line: int, e: DirectoryEntry) -> int:
        """L2 hit, or L2 miss plus a memory fetch that sets ``in_l2``."""
        if e.in_l2:
            self.stats.l2_hits += 1
            return self._l2_lat
        self.stats.memory_fetches += 1
        e.in_l2 = True
        return self._l2_lat + self._memory_latency(line)

    # ── protocol entry points ────────────────────────────────────────────
    def read(self, core: int, addr: int, now: int = 0) -> int:
        """Perform a load; returns its latency in cycles."""
        stats = self.stats
        stats.reads += 1
        line = addr // self._line_size
        l1 = self.l1s[core]
        s = self._l1_sets[core][line % self._n_sets]
        ln = s.get(line)
        if ln is not None and ln.state is not _INVALID:
            s.move_to_end(line)
            l1.hits += 1
            stats.l1_hits += 1
            return self._hit_lat
        l1.misses += 1
        stats.l1_misses += 1
        latency = self._hit_lat + self.interconnect.request_latency(core, line, now)
        e = self.directory.get(line)
        if e is None:
            e = self.directory[line] = DirectoryEntry()

        owner = e.owner
        if owner is not None and owner != core:
            owner_line = self._l1_sets[owner][line % self._n_sets].get(line)
            if owner_line is not None and owner_line.state is _MODIFIED:
                # cache-to-cache transfer; owner writes back and both share
                stats.cache_to_cache += 1
                stats.writebacks += 1
                latency += self._remote_lat
                latency += self.interconnect.core_to_core_latency(core, owner)
                owner_line.state = _SHARED
                e.in_l2 = True
                e.sharers = {owner}
                e.owner = None
                return latency + self._install_l1(core, line, _SHARED, e)
            # remote E: downgrade silently, serve from L2/remote
            if owner_line is not None and owner_line.state is not _INVALID:
                owner_line.state = _SHARED
            e.sharers.add(owner)
            e.owner = None

        latency += self._fill_latency(line, e)
        if e.sharers or self._msi:
            new_state = _SHARED  # MSI has no Exclusive state
        else:
            new_state = _EXCLUSIVE
        return latency + self._install_l1(core, line, new_state, e)

    def write(self, core: int, addr: int, now: int = 0) -> int:
        """Perform a store; returns its latency in cycles."""
        stats = self.stats
        stats.writes += 1
        line = addr // self._line_size
        l1 = self.l1s[core]
        s = self._l1_sets[core][line % self._n_sets]
        resident = s.get(line)

        if resident is not None and resident.state is not _INVALID:
            s.move_to_end(line)
            l1.hits += 1
            stats.l1_hits += 1
            state = resident.state
            if state is _MODIFIED:
                return self._hit_lat
            e = self.directory[line]
            if state is _EXCLUSIVE:
                resident.state = _MODIFIED
                e.owner = core
                e.sharers = {core}
                return self._hit_lat
            # SHARED → upgrade: invalidate the other sharers
            stats.upgrades += 1
            latency = self._hit_lat + self.interconnect.request_latency(core, line, now)
            latency += self._invalidate_remotes(line, core, e)
            resident.state = _MODIFIED
            e.owner = core
            e.sharers = {core}
            return latency

        # write miss: read-for-ownership
        l1.misses += 1
        stats.l1_misses += 1
        latency = self._hit_lat + self.interconnect.request_latency(core, line, now)
        e = self.directory.get(line)
        if e is None:
            e = self.directory[line] = DirectoryEntry()
        owner = e.owner
        if owner is not None and owner != core and (
            (rl := self._l1_sets[owner][line % self._n_sets].get(line)) is not None
            and rl.state is _MODIFIED
        ):
            stats.cache_to_cache += 1
            latency += self._remote_lat
            latency += self.interconnect.core_to_core_latency(core, owner)
        else:
            latency += self._fill_latency(line, e)
        latency += self._invalidate_remotes(line, core, e)
        latency += self._install_l1(core, line, _MODIFIED, e)
        return latency
