"""Unit tests for the set-associative LRU cache."""

import pytest

from repro.simx.cache import Cache, MesiState
from repro.simx.config import CacheConfig
from tests.simx.conftest import valid_lines
from tests.simx.reference_coherence import ReferenceCache


def small_cache(ways: int = 2, sets: int = 4) -> Cache:
    return Cache(CacheConfig(size=ways * sets * 64, ways=ways))


def oracle_cache() -> ReferenceCache:
    """A small cache with ``set_state``, the frozen coherence oracle's
    directory callback."""
    return ReferenceCache(CacheConfig(size=2 * 4 * 64, ways=2))


class TestBasicOperation:
    def test_miss_then_hit(self):
        c = small_cache()
        assert c.touch(5) is None
        c.insert(5, MesiState.EXCLUSIVE)
        line = c.touch(5)
        assert line is not None and line.state is MesiState.EXCLUSIVE
        assert c.hits == 1 and c.misses == 1

    def test_set_indexing_is_modulo(self):
        c = small_cache(sets=4)
        assert c.set_index(0) == 0
        assert c.set_index(4) == 0
        assert c.set_index(7) == 3

    def test_lookup_does_not_count_stats(self):
        c = small_cache()
        c.insert(1, MesiState.SHARED)
        c.lookup(1)
        c.lookup(2)
        assert c.hits == 0 and c.misses == 0


class TestLRUEviction:
    def test_evicts_least_recently_used(self):
        c = small_cache(ways=2, sets=1)
        c.insert(0, MesiState.EXCLUSIVE)
        c.insert(1, MesiState.EXCLUSIVE)
        c.touch(0)  # 1 is now LRU
        result = c.insert(2, MesiState.EXCLUSIVE)
        assert result.evicted is not None and result.evicted.line_addr == 1
        assert c.contains(0) and c.contains(2) and not c.contains(1)

    def test_eviction_returns_state_for_writeback(self):
        c = small_cache(ways=1, sets=1)
        c.insert(0, MesiState.MODIFIED)
        result = c.insert(1, MesiState.EXCLUSIVE)
        assert result.evicted.state is MesiState.MODIFIED

    def test_capacity_respected(self):
        c = small_cache(ways=2, sets=2)
        for line in range(10):
            c.insert(line, MesiState.SHARED)
        assert valid_lines(c) <= 4

    def test_upgrade_in_place_does_not_evict(self):
        c = small_cache(ways=1, sets=1)
        c.insert(0, MesiState.SHARED)
        result = c.insert(0, MesiState.MODIFIED)
        assert result.hit and result.evicted is None
        assert c.lookup(0).state is MesiState.MODIFIED


class TestStateManagement:
    def test_set_state(self):
        c = oracle_cache()
        c.insert(3, MesiState.EXCLUSIVE)
        c.set_state(3, MesiState.SHARED)
        assert c.lookup(3).state is MesiState.SHARED

    def test_set_state_invalid_removes(self):
        c = oracle_cache()
        c.insert(3, MesiState.SHARED)
        c.set_state(3, MesiState.INVALID)
        assert not c.contains(3)

    def test_set_state_on_absent_line_raises(self):
        c = oracle_cache()
        with pytest.raises(KeyError):
            c.set_state(9, MesiState.SHARED)

    def test_set_state_invalid_on_absent_line_is_noop(self):
        c = oracle_cache()
        c.set_state(9, MesiState.INVALID)  # no raise

    def test_invalidate(self):
        c = small_cache()
        c.insert(2, MesiState.MODIFIED)
        assert c.invalidate(2)
        assert not c.contains(2)
        assert not c.invalidate(2)  # second time: not present

    def test_cannot_insert_invalid(self):
        c = small_cache()
        with pytest.raises(ValueError):
            c.insert(0, MesiState.INVALID)

