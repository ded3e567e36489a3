"""Machine configuration (Table I of the paper).

The baseline models the paper's simulated platform: 4-wide cores with
private L1 instruction/data caches, a 4 MB 16-way shared L2 with MESI
coherence, and a modest out-of-order window.  ``simx`` is an
operation-level simulator, so pipeline structures (instruction window, LSQ,
ROB, branch predictor) enter the timing model as an effective
instructions-per-cycle ceiling rather than being simulated structurally;
their Table I sizes are kept in the config for documentation and for the
IPC derivation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.validation import check_positive, check_positive_int

__all__ = ["CacheConfig", "CoreConfig", "MachineConfig"]


@dataclass(frozen=True)
class CacheConfig:
    """A set-associative cache.

    Sizes are in bytes; ``line_size`` must divide ``size`` evenly into
    ``ways`` equal banks.
    """

    size: int
    ways: int
    line_size: int = 64
    hit_latency: int = 2

    def __post_init__(self) -> None:
        check_positive_int(self.size, "size")
        check_positive_int(self.ways, "ways")
        check_positive_int(self.line_size, "line_size")
        check_positive_int(self.hit_latency, "hit_latency")
        if self.size % (self.ways * self.line_size) != 0:
            raise ValueError(
                f"cache size {self.size} not divisible into {self.ways} ways "
                f"of {self.line_size}-byte lines"
            )

    @property
    def n_sets(self) -> int:
        """Number of sets."""
        return self.size // (self.ways * self.line_size)


@dataclass(frozen=True)
class CoreConfig:
    """Core pipeline parameters (Table I: Fetch/Issue/Commit = 4,
    Instn. Window/LSQ/ROB = 32/16/64, 2-level GAp branch predictor)."""

    issue_width: int = 4
    instruction_window: int = 32
    lsq_entries: int = 16
    rob_entries: int = 64
    btb_entries: int = 512
    branch_history_entries: int = 2048
    #: effective sustained IPC for compute bursts; a 4-wide core with a
    #: 32-entry window sustains roughly half its peak on clustering codes.
    effective_ipc: float = 2.0

    def __post_init__(self) -> None:
        check_positive_int(self.issue_width, "issue_width")
        check_positive_int(self.instruction_window, "instruction_window")
        check_positive_int(self.lsq_entries, "lsq_entries")
        check_positive_int(self.rob_entries, "rob_entries")
        check_positive(self.effective_ipc, "effective_ipc")
        if self.effective_ipc > self.issue_width:
            raise ValueError(
                f"effective_ipc {self.effective_ipc} exceeds issue width {self.issue_width}"
            )


@dataclass(frozen=True)
class MachineConfig:
    """A complete CMP: cores, cache hierarchy, interconnect and memory.

    Latencies are in core cycles.  The coherence protocol is MESI with an
    L2-side directory; ``remote_l1_latency`` is the cost of a
    cache-to-cache transfer, ``invalidation_latency`` the cost of
    invalidating one remote sharer on a write upgrade.
    """

    n_cores: int = 16
    core: CoreConfig = field(default_factory=CoreConfig)
    l1i: CacheConfig = field(default_factory=lambda: CacheConfig(size=16 * 1024, ways=2))
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(size=64 * 1024, ways=4))
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(size=4 * 1024 * 1024, ways=16, hit_latency=12)
    )
    memory_latency: int = 120
    remote_l1_latency: int = 40
    invalidation_latency: int = 12
    interconnect: str = "bus"  # "bus" | "mesh"
    bus_latency: int = 4
    #: cycles each bus transaction occupies the bus (0 = infinite
    #: bandwidth); > 0 enables arbitration queueing (ContendedBus).
    bus_occupancy: int = 0
    mesh_hop_latency: int = 2
    lock_acquire_latency: int = 20
    barrier_release_latency: int = 10
    #: per-core sequential-performance multipliers (empty = homogeneous).
    #: Factor k scales a core's compute throughput by k (cache/memory
    #: latencies are unchanged — bigger cores don't speed up the wires).
    core_perf_factors: tuple = ()
    #: "flat" charges memory_latency per L2 miss; "banked" routes misses
    #: through the open-row DRAM model (repro.simx.dram).
    dram: str = "flat"
    dram_banks: int = 8
    dram_row_bytes: int = 2048
    dram_row_hit_latency: int = 60
    dram_row_miss_latency: int = 160
    #: "mesi" (Table I's protocol) or "msi" — without the Exclusive state
    #: every first write after a read miss pays an upgrade transaction.
    coherence_protocol: str = "mesi"
    #: execute traces on the lockstep batch engine (repro.simx.batch):
    #: each thread's private segments run back-to-back with no scheduler
    #: pass, and only synchronisation/shared ops are globally ordered.
    #: Cycle- and stats-identical to the op-at-a-time reference engine by
    #: construction (enforced by tests/differential); the machine falls
    #: back to the reference engine automatically whenever a
    #: configuration makes reordering unsafe (contended bus, banked DRAM,
    #: time-multiplexed dispatch).  Disable to force the reference engine
    #: everywhere.
    batch_path: bool = True
    #: thread-dispatch policy (repro.simx.sched).  "pinned" is the paper's
    #: one-thread-per-core model (and the only policy the batch engine
    #: supports); "round-robin" time-multiplexes run queues over the cores
    #: with quantum preemption; "acmp" extends round-robin with a big-core
    #: ownership policy for asymmetric machines.
    scheduler: str = "pinned"
    #: cycles a dispatched thread may run before it can be preempted by a
    #: ready queued thread (None = run until it blocks).  Only meaningful
    #: for the time-multiplexing schedulers.
    quantum: "int | None" = None
    #: cycles charged when a thread is dispatched on a different core than
    #: the one it last ran on (cold-start penalty on top of the locality
    #: it naturally loses by leaving its L1 behind).
    migration_cost: int = 0
    #: big-core ownership policy for scheduler="acmp":
    #: "first-come" (core 0 is just another core), "reduction-owns-big"
    #: (threads inside a serial/merge phase get dispatch priority for core
    #: 0 and evict other occupants), "migrate-on-phase" (threads chase the
    #: big core on serial-phase entry and leave it on exit).
    acmp_policy: str = "first-come"

    def __post_init__(self) -> None:
        check_positive_int(self.n_cores, "n_cores")
        check_positive_int(self.memory_latency, "memory_latency")
        check_positive_int(self.remote_l1_latency, "remote_l1_latency")
        check_positive_int(self.invalidation_latency, "invalidation_latency")
        check_positive_int(self.bus_latency, "bus_latency")
        check_positive_int(self.mesh_hop_latency, "mesh_hop_latency")
        check_positive_int(self.lock_acquire_latency, "lock_acquire_latency")
        check_positive_int(self.barrier_release_latency, "barrier_release_latency")
        if self.interconnect not in ("bus", "mesh"):
            raise ValueError(
                f"interconnect must be 'bus' or 'mesh', got {self.interconnect!r}"
            )
        if self.dram not in ("flat", "banked"):
            raise ValueError(f"dram must be 'flat' or 'banked', got {self.dram!r}")
        if self.coherence_protocol not in ("mesi", "msi"):
            raise ValueError(
                f"coherence_protocol must be 'mesi' or 'msi', "
                f"got {self.coherence_protocol!r}"
            )
        if self.l1d.line_size != self.l2.line_size:
            raise ValueError("L1D and L2 must share a line size")
        if self.core_perf_factors:
            if len(self.core_perf_factors) != self.n_cores:
                raise ValueError(
                    f"core_perf_factors has {len(self.core_perf_factors)} entries "
                    f"for {self.n_cores} cores"
                )
            if any(f <= 0 for f in self.core_perf_factors):
                raise ValueError("core_perf_factors must be positive")
        if self.scheduler not in ("pinned", "round-robin", "acmp"):
            raise ValueError(
                f"scheduler must be 'pinned', 'round-robin' or 'acmp', "
                f"got {self.scheduler!r}"
            )
        if self.quantum is not None:
            check_positive_int(self.quantum, "quantum")
        if self.migration_cost < 0 or self.migration_cost != int(self.migration_cost):
            raise ValueError(
                f"migration_cost must be a non-negative integer, "
                f"got {self.migration_cost!r}"
            )
        if self.acmp_policy not in (
            "first-come", "reduction-owns-big", "migrate-on-phase"
        ):
            raise ValueError(
                f"acmp_policy must be 'first-come', 'reduction-owns-big' or "
                f"'migrate-on-phase', got {self.acmp_policy!r}"
            )
        if self.scheduler == "pinned":
            if self.quantum is not None:
                raise ValueError(
                    "quantum is only meaningful for the time-multiplexing "
                    "schedulers; pinned never preempts "
                    "(set scheduler='round-robin' or 'acmp')"
                )
            if self.migration_cost:
                raise ValueError(
                    "migration_cost is only meaningful for the "
                    "time-multiplexing schedulers; pinned never migrates"
                )
        if self.acmp_policy != "first-come" and self.scheduler != "acmp":
            raise ValueError(
                f"acmp_policy={self.acmp_policy!r} requires scheduler='acmp'"
            )

    @staticmethod
    def baseline(n_cores: int = 16, interconnect: str = "bus") -> "MachineConfig":
        """The Table I baseline configuration with ``n_cores`` cores.

        The paper simulates up to 16 cores with this configuration; the
        hardware validation machine has 8.
        """
        return MachineConfig(n_cores=n_cores, interconnect=interconnect)

    @staticmethod
    def asymmetric(
        rl: int,
        n_small: int,
        r: int = 1,
        interconnect: str = "bus",
    ) -> "MachineConfig":
        """An ACMP: core 0 is a large ``rl``-BCE core, cores 1..n_small are
        small ``r``-BCE cores; sequential performance follows the paper's
        sqrt-area law.  Pin the master thread (serial sections and the
        merge) to core 0 — tracegen's thread 0 lands there naturally.
        """
        check_positive_int(rl, "rl")
        check_positive_int(n_small, "n_small")
        check_positive_int(r, "r")
        if rl < r:
            raise ValueError(f"large core rl={rl} must be >= small core r={r}")
        factors = (float(rl) ** 0.5, *([float(r) ** 0.5] * n_small))
        return MachineConfig(
            n_cores=n_small + 1,
            interconnect=interconnect,
            core_perf_factors=factors,
        )

    def perf_factor(self, core_id: int) -> float:
        """Sequential-performance multiplier of a core (1.0 if homogeneous)."""
        if not self.core_perf_factors:
            return 1.0
        return float(self.core_perf_factors[core_id])

    @property
    def line_size(self) -> int:
        """The coherence granularity (L1D/L2 line size)."""
        return self.l1d.line_size
