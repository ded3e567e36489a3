"""The bulk settle of a private segment against the per-op loop.

:meth:`repro.simx.batch._PrivateWork.settle` charges a segment's
accesses in closed form, and only when no L1 set it touches can
overflow; :meth:`~repro.simx.batch._PrivateWork.run` is the per-op
inlined protocol it stands in for.  Each direct test here starts both
from the same L1 contents and ``filled`` set, runs one segment through
each, and demands the same sets (keys, LRU order and states),
``filled``, L1 counters, busy cycles, clock and protocol-event buckets.
:func:`fits` restates the no-overflow rule independently: the settle
must take a segment exactly when it holds, and touch nothing when it
does not.  The last tests run whole programs with every segment planned
for the bulk path, against the reference engine.

The settle only plans segments of ``_BULK_MIN`` accesses or more;
``bulk_everywhere`` lowers that limit so small directed segments reach
it.
"""

import os
import random
from dataclasses import replace

import pytest

from repro.simx import Barrier, Compute, Load, Machine, MachineConfig, Store
from repro.simx import batch
from repro.simx.batch import _SEG, _PrivateWork, _Thread, compile_batch
from repro.simx.cache import MesiState
from repro.simx.coherence import CoherenceController
from repro.simx.config import CacheConfig
from repro.simx.stats import PhaseStats
from repro.simx.trace import COMPUTE
from tests.differential.gen import MIXES, generate_program
from tests.differential.harness import (
    CONFIG_RING,
    CONFIGS,
    LINE,
    assert_identical,
    program_of,
    run_two,
    tiny_config,
)

M, E, S, I = (MesiState.MODIFIED, MesiState.EXCLUSIVE, MesiState.SHARED,
              MesiState.INVALID)

#: seeds per mix of the whole-program check; the long CI fuzz raises it
SEEDS_PER_MIX = int(os.environ.get("REPRO_DIFF_SEEDS", "40"))
SHIPPED_BULK_MIN = batch._BULK_MIN


@pytest.fixture
def bulk_everywhere(monkeypatch):
    """Plan every segment with an access for the bulk settle."""
    monkeypatch.setattr(batch, "_BULK_MIN", 1)


class World:
    """Thread 0 of ``threads`` on a fresh machine, its L1 seeded with
    ``residents`` (``(line, state)``, oldest first per set; an INVALID
    one is installed valid and then marked) and its ``filled`` set with
    the residents plus ``filled``, its clock at ``clock``."""

    def __init__(self, config, threads, residents=(), filled=(), clock=0):
        self.compiled = compile_batch(program_of(threads), config.line_size)
        self.coherence = CoherenceController(config)
        self.stats = PhaseStats()
        self.work = _PrivateWork(config, self.coherence, self.compiled, self.stats)
        codes, args = self.compiled.thread_entries[0]
        self.ctx = _Thread(tid=0, codes=codes, args=args,
                           labels=self.compiled.thread_labels[0],
                           denom=config.core.effective_ipc * config.perf_factor(0),
                           clock=clock)
        l1 = self.coherence.l1s[0]
        for line, state in residents:
            assert l1.insert(line, E if state is I else state).evicted is None
            l1._sets[l1.set_index(line)][line].state = state
        self.work.filled.update(line for line, _ in residents)
        self.work.filled.update(filled)
        self.seg = next(a for c, a in zip(codes, args) if c == _SEG)

    def snapshot(self) -> dict:
        l1 = self.coherence.l1s[0]
        return {
            "sets": [[(line, ln.line_addr, ln.state) for line, ln in s.items()]
                     for s in l1._sets],
            "filled": sorted(self.work.filled),
            "l1": (l1.hits, l1.misses, l1.evictions),
            "busy": {p: dict(t) for p, t in self.stats.busy.items()},
            "buckets": dict(self.work.phase_coherence),
            "first_access": dict(self.work.first_access),
            "clock": self.ctx.clock,
        }

    def bucket(self):
        return self.work.phase_coherence["(unattributed)"]


def fits(world: World) -> bool:
    """The no-overflow rule, restated: every L1 set the world's segment
    touches can take its lines not already there (an INVALID entry is
    there) without exceeding its ways."""
    l1 = world.coherence.l1s[0]
    lines_of: dict = {}
    for kind, arg in zip(world.seg.kinds, world.seg.args):
        if kind != COMPUTE:
            line = arg // LINE
            lines_of.setdefault(l1.set_index(line), set()).add(line)
    return all(len(l1._sets[i]) + len(lines - l1._sets[i].keys()) <= l1.ways
               for i, lines in lines_of.items())


def settle_and_loop(config, threads, **start):
    """Run thread 0's segment through the bulk settle in one world and the
    per-op loop in another; returns whether the settle took it (which
    must be what :func:`fits` says), and both worlds."""
    bulk, loop = World(config, threads, **start), World(config, threads, **start)
    assert bulk.seg.plan is not None
    before = bulk.snapshot()
    took = bulk.work.settle(bulk.ctx, bulk.seg)
    assert took == fits(bulk)
    if not took:
        assert bulk.snapshot() == before  # a refusal touches nothing
        return False, bulk, loop
    seg = loop.seg
    assert loop.work.run(loop.ctx, seg.kinds, seg.args, seg.lead) == -1
    assert bulk.snapshot() == loop.snapshot()
    return True, bulk, loop


def line_of(set_idx, k, n_sets=4):
    """The ``k``-th private line of L1 set ``set_idx``."""
    return 0x1000 + k * n_sets + set_idx


def access(kind, line):
    return kind(line * LINE)


@pytest.mark.usefixtures("bulk_everywhere")
class TestDirected:
    def test_full_set_with_a_modified_victim(self):
        """Set 0 is full (2 ways) with its LRU line in M: a fill would
        evict it, so the settle refuses and the loop writes it back."""
        a, b, c = (line_of(0, k) for k in range(3))
        ops = [access(Load, c), Compute(5), access(Store, b),
               access(Store, line_of(1, 0))]
        took, _, loop = settle_and_loop(tiny_config(), [ops],
                                        residents=[(a, M), (b, E)])
        assert not took
        seg = loop.seg
        assert loop.work.run(loop.ctx, seg.kinds, seg.args, seg.lead) == -1
        assert loop.bucket().writebacks == 1

    def test_more_lines_than_ways_in_one_set(self):
        """Three lines through a 2-way set that starts empty: the third
        would evict, so the settle refuses."""
        ops = [access(Load, line_of(1, k)) for k in range(3)] + [Compute(1)]
        took, _, _ = settle_and_loop(tiny_config(), [ops])
        assert not took

    def test_an_invalid_entry_counts_toward_its_set(self):
        """Set 0 holds an INVALID entry of a line the segment leaves
        alone: with two new lines the set would overflow."""
        ops = [access(Load, line_of(0, 1)), access(Store, line_of(0, 2))]
        took, _, _ = settle_and_loop(tiny_config(), [ops],
                                     residents=[(line_of(0, 0), I)])
        assert not took

    def test_an_invalid_entry_is_refilled(self):
        """The segment loads a line whose entry is INVALID: a miss that
        refills it in E from the L2, at the back of its set."""
        x, y = line_of(0, 0), line_of(0, 1)
        ops = [access(Load, x), Compute(2), access(Load, y), access(Load, x)]
        took, bulk, _ = settle_and_loop(tiny_config(), [ops], residents=[(x, I)])
        assert took
        assert bulk.snapshot()["sets"][0] == [(y, y, E), (x, x, E)]
        bucket = bulk.bucket()
        assert (bucket.l1_misses, bucket.l2_hits, bucket.memory_fetches) == (2, 1, 1)

    def test_msi_shared_to_modified_upgrades(self):
        """Under MSI a load fills S, so its later store upgrades, in the
        same visit and after another line of the set; a resident S line
        upgrades on its first store."""
        x, y, z = line_of(2, 0), line_of(2, 1), line_of(3, 0)
        ops = [access(Store, x), access(Load, y), Compute(3), access(Store, y),
               access(Load, z), access(Load, x), access(Store, z),
               access(Store, z)]
        took, bulk, _ = settle_and_loop(tiny_config(coherence_protocol="msi"),
                                        [ops], residents=[(x, S)])
        assert took
        assert bulk.bucket().upgrades == 3

    def test_msi_load_fill_then_store_upgrades(self):
        x = line_of(1, 0)
        ops = [access(Load, x), Compute(4), access(Store, x), access(Load, x)]
        took, bulk, _ = settle_and_loop(tiny_config(coherence_protocol="msi"), [ops])
        assert took
        assert bulk.bucket().upgrades == 1
        assert bulk.snapshot()["sets"][1] == [(x, x, M)]

    def test_a_resident_shared_line_that_is_stored_upgrades(self):
        """Under MESI a resident S line upgrades on its store; a resident
        E line goes to M silently, and a store fill is M at once."""
        x, y, z = line_of(0, 0), line_of(1, 0), line_of(2, 0)
        ops = [access(Load, x), access(Store, y), access(Store, x),
               access(Store, z), access(Load, y)]
        took, bulk, loop = settle_and_loop(tiny_config(), [ops],
                                           residents=[(x, S), (y, E)])
        assert took
        assert bulk.bucket().upgrades == 1
        assert [s[0][2] for s in bulk.snapshot()["sets"][:3]] == [M, M, M]

    def test_a_set_holding_a_valid_shared_line_settles(self):
        """Thread 0's L1 set 0 holds the shared line: a fill cannot evict
        it (one new line, two ways), so the settle takes the segment."""
        shared = line_of(0, 0x1000)
        threads = [[access(Load, shared), Barrier(0), access(Load, line_of(0, 0)),
                    access(Load, line_of(1, 0)), Compute(2)],
                   [Barrier(0), access(Store, shared)]]
        took, bulk, _ = settle_and_loop(tiny_config(), threads,
                                        residents=[(shared, S)])
        assert took
        assert bulk.snapshot()["sets"][0][0] == (shared, shared, S)

    def test_a_core_with_perf_factor_two(self):
        cfg = CONFIGS["asymmetric"]
        assert cfg.perf_factor(0) == 2.0
        ops = [Compute(7), access(Load, line_of(0, 0)), Compute(9),
               access(Store, line_of(1, 0)), Compute(1), Compute(13)]
        took, bulk, loop = settle_and_loop(cfg, [ops], clock=100)
        assert took and bulk.ctx.clock == loop.ctx.clock > 100

    def test_lead_computes_set_the_phase_first_access_key(self):
        """The bucket's first-access key is the clock after the computes
        before the segment's first access."""
        ops = [Compute(10), Compute(11), Compute(3), access(Load, line_of(0, 0)),
               access(Load, line_of(1, 0))]
        took, bulk, _ = settle_and_loop(tiny_config(), [ops], clock=1000)
        assert took and bulk.seg.lead == 3
        # ceil(10/2) + ceil(11/2) + ceil(3/2) = 5 + 6 + 2
        assert bulk.work.first_access == {"(unattributed)": (1013, 0)}


def random_start(rng, config, n_lines):
    """Random private residents (at most ``ways`` per set, random states,
    INVALID included) and a random extra ``filled`` set over lines
    ``0x1000 + [0, n_lines)``."""
    n_sets, ways = config.l1d.n_sets, config.l1d.ways
    pool = [0x1000 + k for k in range(n_lines)]
    per_set: dict = {}
    residents = []
    for line in rng.sample(pool, rng.randrange(n_lines)):
        if len(per_set.setdefault(line % n_sets, [])) < ways:
            per_set[line % n_sets].append(line)
            residents.append((line, rng.choice((M, E, S, I))))
    filled = rng.sample(pool, rng.randrange(n_lines // 2))
    return residents, filled, pool


@pytest.mark.usefixtures("bulk_everywhere")
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_random_segments_settle_like_the_loop(config_name):
    """60 random segments per machine shape: the settle takes exactly
    those :func:`fits` admits, and charges what the loop does."""
    config = CONFIGS[config_name]
    rng = random.Random(f"bulk-settle:{config_name}")
    answers = []
    # pools of 4, 9 or 20 lines per 8 ways of L1, so sets fill up on
    # every shape
    scale = config.l1d.n_sets * config.l1d.ways
    for _ in range(60):
        n_lines = rng.choice((4, 9, 20)) * scale // 8
        residents, filled, pool = random_start(rng, config, n_lines)
        ops = []
        for _ in range(rng.randrange(1, 80)):
            r = rng.random()
            if r < 0.25:
                ops.append(Compute(rng.randrange(0, 40)))
            else:
                kind = Load if r < 0.65 else Store
                ops.append(access(kind, rng.choice(pool)))
        if all(type(op) is Compute for op in ops):
            ops.append(access(Load, pool[0]))
        ops.append(Compute(1))  # keeps a one-access segment multi-op
        took, _, _ = settle_and_loop(config, [ops], residents=residents,
                                     filled=filled, clock=rng.randrange(500))
        answers.append(took)
    assert any(answers) and not all(answers)


@pytest.mark.usefixtures("bulk_everywhere")
@pytest.mark.parametrize("mix", MIXES)
def test_whole_programs_with_every_segment_planned(mix):
    """The differential corpus with every segment planned for the bulk
    settle: identical to the reference engine, and with the burst
    accounting of the default batch run."""
    for seed in range(SEEDS_PER_MIX):
        config_name, cfg = CONFIG_RING[seed % len(CONFIG_RING)]
        program = generate_program(seed, mix)
        ref, bat = run_two(cfg, program)
        assert_identical(bat, ref)
        default = run_shipped_bulk_min(cfg, program)
        assert (bat.n_bursts, bat.n_fused_ops, bat.n_burst_fallbacks) == (
            default.n_bursts, default.n_fused_ops, default.n_burst_fallbacks
        ), f"mix={mix} seed={seed} config={config_name}"


def run_shipped_bulk_min(cfg, program):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(batch, "_BULK_MIN", SHIPPED_BULK_MIN)
        return Machine(replace(cfg, batch_path=True)).run(program)


def settle_answers(monkeypatch, threads, cfg):
    """Run ``threads`` on both engines and record every bulk settle's
    answer; returns the answers and the batch result."""
    answers = []
    settle = _PrivateWork.settle

    def spy(self, ctx, segment):
        answers.append(settle(self, ctx, segment))
        return answers[-1]

    monkeypatch.setattr(_PrivateWork, "settle", spy)
    ref, bat = run_two(cfg, program_of(threads))
    assert_identical(bat, ref)
    return answers, bat


@pytest.mark.parametrize("shared_by_both", [True, False])
def test_a_resident_shared_line_keeps_the_burst_accounting(monkeypatch, shared_by_both):
    """At the shipped ``_BULK_MIN`` a segment big enough to settle in bulk
    touches the set holding thread 0's copy of line 7 * n_sets, one new
    line per set.  Shared or private, that line cannot be evicted, so the
    segment settles in bulk, with no fallback counted."""
    cfg = MachineConfig.baseline(2)
    n_sets = cfg.l1d.n_sets
    line = 7 * n_sets  # set 0
    seg = []
    for k in range(n_sets):  # one private line in each set
        addr = (0x4000 + k) * LINE
        seg += [Load(addr), Compute(3), Store(addr), Load(addr), Compute(5), Store(addr)]
    threads = [[Load(line * LINE), Barrier(0)] + seg + [Barrier(1)],
               [Barrier(0)] + [Store(line * LINE)] * shared_by_both + [Barrier(1)]]
    answers, bat = settle_answers(monkeypatch, threads, cfg)
    assert answers == [True]
    assert bat.n_burst_fallbacks == 0
    assert bat.n_bursts == 1 and bat.n_fused_ops == len(seg)


def test_a_big_cache_geometry(bulk_everywhere):
    """More sets than the tiny machines: one segment of 600 random
    accesses over two lines per set, on the settle and on the loop."""
    config = tiny_config(l1d=CacheConfig(size=64 * 2 * LINE, ways=2))
    rng = random.Random("bulk-settle:big")
    pool = [0x1000 + k for k in range(128)]
    ops = [access(rng.choice((Load, Store)), rng.choice(pool)) for _ in range(600)]
    took, _, _ = settle_and_loop(config, [ops])
    assert took


def test_lines_too_far_apart_for_one_sort_key(bulk_everywhere):
    """Addresses near the top of int64 over enough segments that the
    plan's (segment, set, line) sort key would overflow: the plan sorts
    by two keys instead, and the run matches the reference engine.  The
    segments revisit three lines per 2-way set, so some settle and some
    overflow."""
    cfg = tiny_config()
    top = (1 << 63) // LINE - 100
    rng = random.Random("bulk-settle:top")
    n_segs = 80
    ops = []
    for k in range(n_segs):
        for _ in range(rng.randrange(2, 9)):
            ops.append(access(rng.choice((Load, Store)), top - rng.randrange(12)))
            ops.append(Compute(rng.randrange(1, 9)))
        ops.append(Barrier(k))
    assert n_segs * cfg.l1d.n_sets * (top // cfg.l1d.n_sets + 1) >= 1 << 63
    ref, bat = run_two(cfg, program_of([ops]))
    assert_identical(bat, ref)
