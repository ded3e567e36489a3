"""Core-to-L2 interconnect timing models.

Two models, matching the paper's settings:

* **bus** — a shared snooping bus with a fixed transfer latency (the
  classic small-scale CMP; the paper's 16-core simulations);
* **mesh** — a 2D mesh of tiles, each holding one core and one bank of the
  distributed shared L2 (home bank = line address modulo core count); the
  transfer latency is the XY hop count times the per-hop latency (the
  topology Section V.E analyses).
"""

from __future__ import annotations

import numpy as np

from repro.noc.topology import Mesh2D
from repro.simx.config import MachineConfig

__all__ = ["Interconnect", "BusInterconnect", "ContendedBus", "MeshInterconnect", "build_interconnect"]


class Interconnect:
    """Latency oracle between a requesting core and a line's L2 home.

    ``now`` is the requesting core's local clock; contended interconnects
    use it to model arbitration queueing, uncontended ones ignore it.
    """

    def request_latency(self, core: int, line_addr: int, now: int = 0) -> int:
        """Cycles to send a request and receive the reply."""
        raise NotImplementedError

    def core_to_core_latency(self, src: int, dst: int) -> int:
        """Cycles for a cache-to-cache transfer between two cores."""
        raise NotImplementedError


class BusInterconnect(Interconnect):
    """A fixed-latency shared bus (infinite bandwidth)."""

    def __init__(self, latency: int):
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        self.latency = latency

    def request_latency(self, core: int, line_addr: int, now: int = 0) -> int:
        return self.latency

    def core_to_core_latency(self, src: int, dst: int) -> int:
        return self.latency if src != dst else 0


class ContendedBus(BusInterconnect):
    """A shared bus with arbitration: one transaction at a time.

    Every request occupies the bus for ``occupancy`` cycles; a request
    issued while the bus is busy queues until it frees.  With many cores
    issuing misses concurrently this is the classic snooping-bus
    saturation that caps small-core designs.
    """

    def __init__(self, latency: int, occupancy: int):
        super().__init__(latency)
        if occupancy < 1:
            raise ValueError(f"occupancy must be >= 1, got {occupancy}")
        self.occupancy = occupancy
        self.busy_until = 0
        self.queued_cycles = 0
        self.transactions = 0

    def request_latency(self, core: int, line_addr: int, now: int = 0) -> int:
        wait = max(0, self.busy_until - now)
        self.busy_until = max(now, self.busy_until) + self.occupancy
        self.queued_cycles += wait
        self.transactions += 1
        return wait + self.latency


class MeshInterconnect(Interconnect):
    """A 2D mesh of tiles with a banked shared L2.

    The home bank of a line is ``line_addr % n_cores``; request latency is
    ``2 × hops × hop_latency`` (request + reply), precomputed once as
    ``request_table[core][bank]``, and a cache-to-cache transfer costs
    ``hops × hop_latency``, precomputed as ``transfer_table[src][dst]``.
    """

    def __init__(self, n_cores: int, hop_latency: int):
        if hop_latency < 0:
            raise ValueError(f"hop_latency must be >= 0, got {hop_latency}")
        self.mesh = Mesh2D(n_cores)
        self.hop_latency = hop_latency
        row, col = np.divmod(np.arange(self.mesh.n_nodes), self.mesh.cols)
        hops = np.abs(row[:, None] - row) + np.abs(col[:, None] - col)
        self.request_table = tuple(map(tuple, (2 * hop_latency * hops).tolist()))
        self.transfer_table = tuple(map(tuple, (hop_latency * hops).tolist()))

    def request_latency(self, core: int, line_addr: int, now: int = 0) -> int:
        if not 0 <= core < self.mesh.n_nodes:
            raise ValueError(f"core {core} out of range [0, {self.mesh.n_nodes})")
        return self.request_table[core][line_addr % self.mesh.n_nodes]

    def core_to_core_latency(self, src: int, dst: int) -> int:
        n = self.mesh.n_nodes
        if not (0 <= src < n and 0 <= dst < n):
            raise ValueError(f"cores ({src}, {dst}) out of range [0, {n})")
        return self.transfer_table[src][dst]


def build_interconnect(config: MachineConfig) -> Interconnect:
    """Instantiate the interconnect the config names."""
    if config.interconnect == "bus":
        if config.bus_occupancy > 0:
            return ContendedBus(config.bus_latency, config.bus_occupancy)
        return BusInterconnect(config.bus_latency)
    return MeshInterconnect(config.n_cores, config.mesh_hop_latency)
