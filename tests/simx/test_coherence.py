"""Unit + property tests for the MESI coherence controller."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simx.cache import MesiState
from repro.simx.coherence import CoherenceController
from repro.simx.config import CacheConfig, MachineConfig
from tests.simx.conftest import check_invariants


def small_machine(n_cores: int = 4) -> MachineConfig:
    """Tiny caches so evictions and conflicts actually happen in tests."""
    return MachineConfig(
        n_cores=n_cores,
        l1d=CacheConfig(size=8 * 64, ways=2),   # 8 lines
        l1i=CacheConfig(size=8 * 64, ways=2),
        l2=CacheConfig(size=64 * 64, ways=4, hit_latency=12),
    )


def controller(n_cores: int = 4) -> CoherenceController:
    return CoherenceController(small_machine(n_cores))


class TestReadPath:
    def test_cold_read_goes_to_memory(self):
        c = controller()
        latency = c.read(0, 0)
        assert c.stats.memory_fetches == 1
        assert latency >= c.config.memory_latency

    def test_second_read_hits_l1(self):
        c = controller()
        c.read(0, 0)
        latency = c.read(0, 0)
        assert latency == c.config.l1d.hit_latency
        assert c.stats.l1_hits == 1

    def test_first_reader_gets_exclusive(self):
        c = controller()
        c.read(0, 0)
        assert c.l1s[0].lookup(0).state is MesiState.EXCLUSIVE

    def test_second_reader_shares(self):
        c = controller()
        c.read(0, 0)
        c.read(1, 0)
        assert c.l1s[0].lookup(0).state is MesiState.SHARED
        assert c.l1s[1].lookup(0).state is MesiState.SHARED

    def test_read_of_remote_modified_triggers_transfer(self):
        c = controller()
        c.write(0, 0)
        latency = c.read(1, 0)
        assert c.stats.cache_to_cache == 1
        assert c.stats.writebacks >= 1
        assert latency > c.config.l1d.hit_latency + c.config.l2.hit_latency
        assert c.l1s[0].lookup(0).state is MesiState.SHARED
        assert c.l1s[1].lookup(0).state is MesiState.SHARED

    def test_same_line_different_bytes(self):
        c = controller()
        c.read(0, 0)
        latency = c.read(0, 63)  # same 64-byte line
        assert latency == c.config.l1d.hit_latency


class TestWritePath:
    def test_cold_write_installs_modified(self):
        c = controller()
        c.write(0, 0)
        assert c.l1s[0].lookup(0).state is MesiState.MODIFIED

    def test_write_hit_on_modified_is_cheap(self):
        c = controller()
        c.write(0, 0)
        assert c.write(0, 0) == c.config.l1d.hit_latency

    def test_silent_upgrade_from_exclusive(self):
        c = controller()
        c.read(0, 0)  # E
        latency = c.write(0, 0)
        assert latency == c.config.l1d.hit_latency
        assert c.stats.upgrades == 0
        assert c.l1s[0].lookup(0).state is MesiState.MODIFIED

    def test_upgrade_from_shared_invalidates_others(self):
        c = controller()
        c.read(0, 0)
        c.read(1, 0)
        c.read(2, 0)
        latency = c.write(0, 0)
        assert c.stats.upgrades == 1
        assert c.stats.invalidations == 2
        assert latency >= c.config.l1d.hit_latency + 2 * c.config.invalidation_latency
        assert c.l1s[1].lookup(0) is None
        assert c.l1s[2].lookup(0) is None

    def test_write_miss_steals_modified_line(self):
        c = controller()
        c.write(0, 0)
        c.write(1, 0)
        assert c.stats.cache_to_cache == 1
        assert c.l1s[0].lookup(0) is None
        assert c.l1s[1].lookup(0).state is MesiState.MODIFIED

    def test_ping_pong_is_expensive(self):
        # false-sharing-style ping-pong costs far more than local writes
        c = controller()
        local = sum(c.write(0, 64 * 100) for _ in range(10))
        c2 = controller()
        pingpong = sum(c2.write(i % 2, 0) for i in range(10))
        assert pingpong > local


class TestEvictions:
    def test_dirty_eviction_writes_back(self):
        c = controller()
        # fill one set (2 ways, set = line % 8): lines 0, 8, 16 share set 0
        c.write(0, 0 * 64)
        c.write(0, 8 * 64)
        c.write(0, 16 * 64)  # evicts line 0
        assert c.stats.writebacks >= 1
        assert c.directory[0].in_l2  # L2 residency is the sticky directory bit

    def test_evicted_line_refetch_hits_l2(self):
        c = controller()
        c.write(0, 0 * 64)
        c.write(0, 8 * 64)
        c.write(0, 16 * 64)
        before = c.stats.memory_fetches
        c.read(0, 0 * 64)  # comes back from L2, not memory
        assert c.stats.memory_fetches == before


class TestInvariants:
    def test_invariants_after_simple_sharing(self):
        c = controller()
        c.read(0, 0)
        c.read(1, 0)
        c.write(2, 0)
        c.read(3, 0)
        check_invariants(c)

    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["r", "w"]),
                st.integers(min_value=0, max_value=3),   # core
                st.integers(min_value=0, max_value=31),  # line
            ),
            min_size=1,
            max_size=120,
        )
    )
    def test_random_access_streams_preserve_mesi_safety(self, ops):
        c = controller(4)
        for kind, core, line in ops:
            addr = line * 64
            if kind == "r":
                c.read(core, addr)
            else:
                c.write(core, addr)
        check_invariants(c)

    @settings(max_examples=30, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["r", "w"]),
                st.integers(min_value=0, max_value=7),
                st.integers(min_value=0, max_value=15),
            ),
            min_size=1,
            max_size=80,
        )
    )
    def test_latencies_always_positive(self, ops):
        c = controller(8)
        for kind, core, line in ops:
            addr = line * 64
            latency = c.read(core, addr) if kind == "r" else c.write(core, addr)
            assert latency >= c.config.l1d.hit_latency
