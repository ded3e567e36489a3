"""Property test: the set-associative cache against a reference model.

The reference is an obviously-correct (if slow) LRU implementation: one
ordered list per set.  Hypothesis drives both with the same access
streams; residency and eviction decisions must match exactly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simx.cache import Cache, MesiState
from repro.simx.config import CacheConfig
from tests.simx.conftest import valid_lines


class ReferenceLRU:
    """Textbook LRU cache over line addresses (no coherence states)."""

    def __init__(self, n_sets: int, ways: int):
        self.n_sets = n_sets
        self.ways = ways
        self.sets: list[list[int]] = [[] for _ in range(n_sets)]

    def access(self, line: int) -> bool:
        """Touch-or-insert; returns True on hit."""
        s = self.sets[line % self.n_sets]
        if line in s:
            s.remove(line)
            s.append(line)  # most recent at the back
            return True
        if len(s) >= self.ways:
            s.pop(0)
        s.append(line)
        return False

    def contains(self, line: int) -> bool:
        return line in self.sets[line % self.n_sets]


@settings(max_examples=80, deadline=None)
@given(
    ways=st.integers(min_value=1, max_value=4),
    sets_pow=st.integers(min_value=0, max_value=3),
    stream=st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=200),
)
def test_cache_matches_reference_lru(ways, sets_pow, stream):
    n_sets = 2**sets_pow
    cache = Cache(CacheConfig(size=ways * n_sets * 64, ways=ways))
    ref = ReferenceLRU(n_sets, ways)
    for line in stream:
        ref_hit = ref.access(line)
        line_obj = cache.touch(line)
        actual_hit = line_obj is not None
        if not actual_hit:
            cache.insert(line, MesiState.EXCLUSIVE)
        assert actual_hit == ref_hit, f"divergence at line {line}"
    # final residency identical
    for line in range(64):
        assert cache.contains(line) == ref.contains(line), line


@settings(max_examples=40, deadline=None)
@given(
    stream=st.lists(st.integers(min_value=0, max_value=31), min_size=1, max_size=150),
)
def test_hit_counters_consistent(stream):
    cache = Cache(CacheConfig(size=2 * 4 * 64, ways=2))
    hits = misses = 0
    for line in stream:
        if cache.touch(line) is None:
            cache.insert(line, MesiState.SHARED)
            misses += 1
        else:
            hits += 1
    assert cache.hits == hits
    assert cache.misses == misses
    assert valid_lines(cache) <= 8
