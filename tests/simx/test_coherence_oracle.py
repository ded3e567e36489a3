"""Property test: the live MESI controller against a frozen copy.

Both engines run shared accesses through the one
:class:`~repro.simx.coherence.CoherenceController`, so engine-vs-engine
identity says nothing about the protocol itself.  Here the controller and
:class:`tests.simx.reference_coherence.ReferenceCoherenceController` (the
controller as first written, frozen) take the same random stream of reads
and writes — a few cores on a handful of lines, so lines are shared,
migrate and get evicted — on every machine shape the controller supports.
After each op the two must agree on the latency, the protocol counters,
every L1's contents in LRU order, the L1 hit/miss/eviction counters, and
every directory entry.  The stream also swaps the ``stats`` object the
way the batch engine files events into per-phase buckets.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simx.coherence import CoherenceController, CoherenceStats
from repro.simx.config import CacheConfig, MachineConfig
from tests.simx.conftest import check_invariants
from tests.simx.reference_coherence import ReferenceCoherenceController

LINE = 64

#: (protocol, interconnect, bus occupancy, dram)
SHAPES = [
    (proto, ic, occ, dram)
    for proto, (ic, occ), dram in itertools.product(
        ("mesi", "msi"),
        (("bus", 0), ("bus", 3), ("mesh", 0)),
        ("flat", "banked"),
    )
]


def machine(n_cores, proto, ic, occ, dram, sets=2, ways=2):
    l1 = CacheConfig(size=sets * ways * LINE, ways=ways)
    return MachineConfig(
        n_cores=n_cores,
        l1d=l1,
        l1i=l1,
        l2=CacheConfig(size=64 * LINE, ways=4, hit_latency=12),
        coherence_protocol=proto,
        interconnect=ic,
        bus_occupancy=occ,
        dram=dram,
        dram_banks=2,
        dram_row_bytes=2 * LINE,
    )


def l1_contents(ctrl):
    """Each L1 as a list of sets, each a list of (line, state) LRU-first."""
    return [
        [[(la, ln.state) for la, ln in s.items()] for s in l1._sets]
        for l1 in ctrl.l1s
    ]


def directory(ctrl):
    return {
        line: (e.owner, set(e.sharers), e.in_l2)
        for line, e in ctrl.directory.items()
    }


def assert_same_state(live, ref, why):
    assert live.stats == ref.stats, why
    assert l1_contents(live) == l1_contents(ref), why
    assert [(c.hits, c.misses, c.evictions) for c in live.l1s] == \
           [(c.hits, c.misses, c.evictions) for c in ref.l1s], why
    assert directory(live) == directory(ref), why
    if live.dram is not None:
        assert (live.dram.row_hits, live.dram.row_misses) == \
               (ref.dram.row_hits, ref.dram.row_misses), why
    # a contended bus's arbitration state (busy_until, queued cycles, ...)
    assert int_fields(live.interconnect) == int_fields(ref.interconnect), why


def int_fields(obj):
    return {k: v for k, v in vars(obj).items() if isinstance(v, int)}


def replay(config, stream):
    """Run one op stream through both controllers, comparing after each.

    ``stream`` items are ``(core, line, offset, is_write, dt, bucket)``:
    ``dt`` advances the requester's clock, ``bucket`` picks which of a
    few per-phase stats objects both controllers file into.
    """
    live = CoherenceController(config)
    ref = ReferenceCoherenceController(config)
    live_buckets: dict[int, CoherenceStats] = {}
    ref_buckets: dict[int, CoherenceStats] = {}
    now = 0
    for i, (core, line, offset, is_write, dt, bucket) in enumerate(stream):
        live.stats = live_buckets.setdefault(bucket, CoherenceStats())
        ref.stats = ref_buckets.setdefault(bucket, CoherenceStats())
        now += dt
        addr = line * LINE + offset
        why = f"op {i}: core {core} {'write' if is_write else 'read'} line {line}"
        if is_write:
            got, want = live.write(core, addr, now), ref.write(core, addr, now)
        else:
            got, want = live.read(core, addr, now), ref.read(core, addr, now)
        assert got == want, why
        assert_same_state(live, ref, why)
        check_invariants(live)
    assert live_buckets == ref_buckets


def op_stream(n_cores, n_lines):
    return st.lists(
        st.tuples(
            st.integers(0, n_cores - 1),
            st.integers(0, n_lines - 1),
            st.integers(0, LINE - 1),
            st.booleans(),
            st.integers(0, 40),
            st.integers(0, 2),
        ),
        min_size=1,
        max_size=120,
    )


@st.composite
def scenarios(draw):
    n_cores = draw(st.sampled_from((1, 2, 3, 4, 6)))
    n_lines = draw(st.integers(1, 8))
    shape = draw(st.sampled_from(SHAPES))
    sets, ways = draw(st.sampled_from(((1, 1), (1, 2), (2, 2), (4, 2), (2, 4))))
    config = machine(n_cores, *shape, sets=sets, ways=ways)
    return config, draw(op_stream(n_cores, n_lines))


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_controller_matches_frozen_reference(scenario):
    config, stream = scenario
    replay(config, stream)


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "-".join(map(str, s)))
def test_every_shape_on_long_seeded_streams(shape):
    """Every protocol/interconnect/DRAM combination, on streams
    long enough to cycle lines through every MESI state."""
    for seed in range(4):
        rng = random.Random(seed)
        n_cores = (2, 4, 3, 6)[seed]
        n_lines = (3, 6, 10, 5)[seed]
        stream = [
            (
                rng.randrange(n_cores),
                rng.randrange(n_lines),
                rng.randrange(LINE),
                rng.random() < 0.45,
                rng.randrange(30),
                rng.randrange(3),
            )
            for _ in range(400)
        ]
        replay(machine(n_cores, *shape), stream)
