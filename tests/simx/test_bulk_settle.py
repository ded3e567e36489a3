"""The bulk settle of a private segment against the per-op loop.

:meth:`repro.simx.batch._PrivateWork.settle` replays a segment's
accesses per L1 set in numpy; :meth:`~repro.simx.batch._PrivateWork.run`
is the per-op inlined protocol it stands in for.  Each direct test here
starts both from the same L1 contents and ``filled`` set, runs one
segment through each, and demands the same sets (keys, LRU order and
states), ``filled``, L1 counters, busy cycles, clock and protocol-event
buckets.  A segment whose touched sets hold a shared line must be
refused and left to the loop.  The last tests run whole programs with
every segment planned for the bulk path, against the reference engine.

The settle only takes segments of ``_BULK_MIN`` accesses whose LRU
rounds, touched sets and resident lines cost less than their ops;
``bulk_everywhere`` zeroes those limits so small directed segments
reach it.
"""

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

M, E, S = MesiState.MODIFIED, MesiState.EXCLUSIVE, MesiState.SHARED

#: the limits that decide which segments settle in bulk, as shipped
LIMITS = ("_BULK_MIN", "_ROUND_COST", "_SET_COST", "_LINE_COST")
SHIPPED = {name: getattr(batch, name) for name in LIMITS}


@pytest.fixture
def bulk_everywhere(monkeypatch):
    """Settle every segment with an access in bulk, whatever it costs."""
    for name in LIMITS:
        monkeypatch.setattr(batch, name, 1 if name == "_BULK_MIN" else 0)


class World:
    """Thread 0 of ``threads`` on a fresh machine, its L1 seeded with
    ``residents`` (``(line, state)``, oldest first per set) and its
    ``filled`` set with the residents plus ``filled``, its clock at
    ``clock``."""

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
        for line, state in residents:
            assert self.coherence.l1s[0].insert(line, state).evicted is None
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


def settle_and_loop(config, threads, **start):
    """Run thread 0's segment through the bulk settle in one world and the
    per-op loop in another; returns whether the settle took it, and both
    worlds."""
    bulk, loop = World(config, threads, **start), World(config, threads, **start)
    assert bulk.seg.plan is not None
    before = bulk.snapshot()
    took = bulk.work.settle(bulk.ctx, bulk.seg)
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
        """Set 0 is full (2 ways) with its LRU line in M: the first fill
        evicts it with a writeback, the next evicts the E line silently,
        and refetching that line evicts the stored one, dirty."""
        a, b, c, d = (line_of(0, k) for k in range(4))
        ops = [access(Load, c), Compute(5), access(Store, c), access(Load, d),
               access(Load, b), access(Store, line_of(1, 0))]
        took, bulk, _ = settle_and_loop(tiny_config(), [ops],
                                        residents=[(a, M), (b, E)])
        assert took
        bucket = bulk.work.phase_coherence["(unattributed)"]
        assert bucket.writebacks == 2 and bulk.coherence.l1s[0].evictions == 3

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
        assert bulk.work.phase_coherence["(unattributed)"].upgrades == 3

    def test_more_lines_than_ways_in_one_set(self):
        """Five lines cycle through a 2-way set: every revisit misses,
        refills hit the L2, dirty victims write back."""
        lines = [line_of(1, k) for k in range(5)]
        ops = []
        for rep in range(4):
            for k, line in enumerate(lines):
                ops.append(access(Store if (rep + k) % 3 == 0 else Load, line))
                ops.append(Compute(k + 1))
        took, bulk, _ = settle_and_loop(tiny_config(), [ops],
                                        residents=[(lines[0], E)],
                                        filled=[lines[3]])
        assert took
        bucket = bulk.work.phase_coherence["(unattributed)"]
        assert bucket.l2_hits > 0 and bucket.writebacks > 0
        assert bucket.memory_fetches == 3  # lines 1, 2 and 4

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

    def test_a_set_holding_a_shared_line_takes_the_loop(self):
        """Thread 0's L1 set 0 holds the shared line 0x2000: the settle
        refuses the segment, and the loop runs it without a bail because
        the set never fills."""
        shared = line_of(0, 0x1000)
        threads = [[access(Load, shared), Barrier(0), access(Load, line_of(0, 0)),
                    access(Load, line_of(1, 0)), Compute(2)],
                   [Barrier(0), access(Store, shared)]]
        took, bulk, loop = settle_and_loop(tiny_config(), threads,
                                           residents=[(shared, S)])
        assert not took
        seg = loop.seg
        assert loop.work.run(loop.ctx, seg.kinds, seg.args, seg.lead) == -1


def random_start(rng, config, n_lines):
    """Random private residents (at most ``ways`` per set, random states)
    and a random extra ``filled`` set over lines ``0x1000 + [0, n_lines)``."""
    n_sets, ways = config.l1d.n_sets, config.l1d.ways
    pool = [0x1000 + k for k in range(n_lines)]
    per_set: dict = {}
    residents = []
    for line in rng.sample(pool, rng.randrange(n_lines)):
        if len(per_set.setdefault(line % n_sets, [])) < ways:
            per_set[line % n_sets].append(line)
            residents.append((line, rng.choice((M, E, S))))
    filled = rng.sample(pool, rng.randrange(n_lines // 2))
    return residents, filled, pool


@pytest.mark.usefixtures("bulk_everywhere")
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_random_segments_settle_like_the_loop(config_name):
    config = CONFIGS[config_name]
    rng = random.Random(f"bulk-settle:{config_name}")
    for _ in range(60):
        n_lines = rng.choice((4, 9, 20))
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
        assert took


@pytest.mark.usefixtures("bulk_everywhere")
@pytest.mark.parametrize("mix", MIXES)
def test_whole_programs_with_every_segment_planned(mix):
    """The differential corpus with the bulk settle on every segment it
    may take: identical to the reference engine, and with the burst
    accounting of the default batch run."""
    for seed in range(40):
        config_name, cfg = CONFIG_RING[seed % len(CONFIG_RING)]
        program = generate_program(seed, mix)
        ref, bat = run_two(cfg, program)
        assert_identical(bat, ref)
        default = run_default_thresholds(cfg, program)
        assert (bat.n_bursts, bat.n_fused_ops, bat.n_burst_fallbacks) == (
            default.n_bursts, default.n_fused_ops, default.n_burst_fallbacks
        ), f"mix={mix} seed={seed} config={config_name}"


def run_default_thresholds(cfg, program):
    with pytest.MonkeyPatch.context() as mp:
        for name, value in SHIPPED.items():
            mp.setattr(batch, name, value)
        return Machine(replace(cfg, batch_path=True)).run(program)


def settle_answers(monkeypatch, threads, cfg):
    """Run ``threads`` on both engines and record every bulk settle's
    answer; returns the answers and both results."""
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
    """At the shipped limits a segment big enough to settle in bulk
    touches the set holding thread 0's copy of line 7 * n_sets.  Shared,
    the line makes the settle refuse and the loop run the segment, with
    no fallback counted because that set never fills; private, the same
    segment settles in bulk."""
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
    assert answers == [not shared_by_both]
    assert bat.n_burst_fallbacks == 0
    assert bat.n_bursts == 1 and bat.n_fused_ops == len(seg)


def test_a_big_cache_geometry(bulk_everywhere):
    """More sets than the tiny machines: many one-line sets and a few
    crowded ones in one segment, on the settle and on the loop."""
    config = tiny_config(l1d=CacheConfig(size=64 * 2 * LINE, ways=2))
    rng = random.Random("bulk-settle:big")
    pool = [0x1000 + k for k in range(200)]
    ops = [access(rng.choice((Load, Store)), rng.choice(pool)) for _ in range(600)]
    took, _, _ = settle_and_loop(config, [ops])
    assert took
