"""Directed traces pinning the batch interpreter's fallback seams.

The lockstep epochs may only elide scheduling where reordering is
provably unobservable; each test here constructs the exact boundary
where that proof stops — a coherence event inside an epoch, an L1 fill
that would evict a shared line, a phase transition while other threads'
clocks diverge — and asserts the batch engine both takes the fallback
(where observable in the op accounting) and stays cycle-identical.
Configurations whose state couples cores (banked DRAM, a contended bus)
must bypass the batch engine entirely.
"""

from dataclasses import replace

import pytest

from repro.simx import (
    Barrier,
    Compute,
    Load,
    Machine,
    Store,
    supports_batch_path,
)
from repro.simx.batch import compile_batch
from tests.differential.harness import (
    CONFIGS,
    LINE,
    assert_identical,
    program_of,
    run_two,
    tiny_config,
)


def run_ref_and_batch(threads, config):
    return run_two(config, program_of(threads))


def private(tid, idx):
    return (0x1000 + tid * 0x100 + idx) * LINE


class TestCoherenceEventInsideEpoch:
    def test_first_shared_access_parks_the_epoch(self):
        """A shared access mid-trace splits the segment at compile time
        and executes in global order; cycles stay identical."""
        threads = [
            [Load(private(0, i)) for i in range(6)]
            + [Store(0)]  # first coherence event
            + [Load(private(0, i)) for i in range(6)],
            [Compute(100), Load(0), Compute(100)],
        ]
        cfg = tiny_config()
        compiled = compile_batch(program_of(threads), cfg.line_size)
        # the shared line is a segment boundary, not part of any burst
        assert 0 in compiled.shared_lines
        ref, bat = run_ref_and_batch(threads, cfg)
        assert bat.engine == "batch"
        assert bat.n_bursts >= 2  # the private run was split, not fused over
        assert_identical(bat, ref)

    def test_remote_invalidation_between_epochs(self):
        """Thread 1's store invalidates thread 0's cached shared line;
        the reload observes it through the globally-ordered path."""
        threads = [
            [Load(0), Barrier(0), Load(0)],
            [Store(0), Barrier(0), Compute(10)],
        ]
        ref, bat = run_ref_and_batch(threads, tiny_config())
        assert ref.coherence.invalidations >= 1
        assert_identical(bat, ref)


class TestEvictionHazardBail:
    def test_private_fill_into_a_set_holding_a_shared_line_bails(self):
        """With shared lines resident in a full set, a private fill's
        victim depends on remote timing: the op must fall back.  Under
        the tiny L1 (4 sets x 2 ways), private lines 0,4,8,12 and shared
        lines 0,4 all map to set 0."""
        threads = [
            [Load(0 * LINE), Load(4 * LINE)]  # two shared lines fill set 0
            + [Load(private(0, i)) for i in (0, 4, 8, 12)],
            [Compute(50), Load(0 * LINE)],
        ]
        cfg = tiny_config()
        ref, bat = run_ref_and_batch(threads, cfg)
        assert bat.n_burst_fallbacks >= 1
        assert_identical(bat, ref)

    def test_bailed_op_still_executes_exactly_once(self):
        threads = [
            [Load(0 * LINE), Load(4 * LINE)]
            + [Store(private(0, i)) for i in (0, 4, 8, 12)],
        ]
        ref, bat = run_ref_and_batch(threads, tiny_config())
        assert ref.n_ops == bat.n_ops
        assert_identical(bat, ref)


class TestPrivateLineHandOff:
    """The eager loop keeps no directory entry for a private line; a bail
    hands the line over to the full protocol path.

    Under the tiny L1 (4 sets x 2 ways) the private lines ``P``, ``P4``
    and ``P8`` and the shared lines 0 and 4 all map to set 0.  Thread 1
    makes lines 0 and 4 shared by loading them after thread 0 is done."""

    P, P4, P8 = (private(0, i) for i in (0, 4, 8))
    SHARED_LOADS = [Load(0 * LINE), Load(4 * LINE)]
    LATE_READER = [Compute(100_000), Load(0 * LINE), Load(4 * LINE)]

    @pytest.fixture(params=["mesi", "msi"])
    def cfg(self, request):
        return tiny_config(coherence_protocol=request.param)

    def test_bail_after_a_clean_eager_eviction_hits_the_l2(self, cfg):
        """P is filled and evicted clean in the eager loop, then the shared
        lines fill the set, so the reload of P bails: it must be an L2
        hit, which the bail learns only from the engine's fill record."""
        threads = [
            [Load(self.P), Load(self.P4), Load(self.P8)]
            + self.SHARED_LOADS + [Load(self.P)],
            self.LATE_READER,
        ]
        ref, bat = run_ref_and_batch(threads, cfg)
        assert bat.n_burst_fallbacks == 1
        # fetched once each: P, P4, P8 and the two shared lines; the L2
        # hits are P's reload and thread 1's two loads
        for result in (ref, bat):
            assert result.coherence.memory_fetches == 5
            assert result.coherence.l2_hits == 3
            assert result.coherence.writebacks == 0
        assert_identical(bat, ref)

    def test_bail_after_a_dirty_eager_eviction_hits_the_l2(self, cfg):
        """The same with P stored to, so its eager eviction writes back."""
        threads = [
            [Store(self.P), Load(self.P4), Load(self.P8)]
            + self.SHARED_LOADS + [Load(self.P)],
            self.LATE_READER,
        ]
        ref, bat = run_ref_and_batch(threads, cfg)
        assert bat.n_burst_fallbacks == 1
        for result in (ref, bat):
            assert result.coherence.writebacks == 1
            assert result.coherence.memory_fetches == 5
            assert result.coherence.l2_hits == 3
        assert_identical(bat, ref)

    def test_line_first_filled_by_a_bail_leaves_no_phantom_copy(self, cfg):
        """P's first fill is a bail, so the full path records thread 0 as
        its owner and sharer.  The eager loop then evicts P without
        touching that entry, and P is bailed on again: the reload must
        see no copy of P anywhere (no transfer, no invalidation), install
        E under MESI so the store after it is a silent E→M hit, and hit
        the L2."""
        threads = [
            self.SHARED_LOADS
            + [Load(self.P), Load(self.P4), Load(self.P8)]
            + [Load(0 * LINE), Load(self.P), Store(self.P)],
            self.LATE_READER,
        ]
        ref, bat = run_ref_and_batch(threads, cfg)
        # P and P4 bail on a set holding a shared line; P8 fills eagerly
        # and evicts P; the reload of P bails on shared line 0
        assert bat.n_burst_fallbacks == 3
        msi = cfg.coherence_protocol == "msi"
        for result in (ref, bat):
            assert result.coherence.cache_to_cache == 0
            assert result.coherence.invalidations == 0
            assert result.coherence.upgrades == (1 if msi else 0)
            assert result.coherence.memory_fetches == 5
            # line 0's reload, P's reload and thread 1's two loads
            assert result.coherence.l2_hits == 4
        assert_identical(bat, ref)


class TestPhaseTransitionInsideEpoch:
    def test_phase_markers_note_eager_clocks(self):
        """Phase spans are recorded at each thread's own (eagerly
        advanced) clock, exactly as the reference scheduler would."""
        from repro.simx import PhaseBegin, PhaseEnd

        threads = [
            [PhaseBegin("parallel"), Compute(400)]
            + [Load(private(0, i)) for i in range(8)]
            + [PhaseEnd("parallel"), PhaseBegin("merge"), Store(0),
               PhaseEnd("merge")],
            [PhaseBegin("parallel"), Compute(20), PhaseEnd("parallel"),
             PhaseBegin("merge"), Load(0), PhaseEnd("merge")],
        ]
        ref, bat = run_ref_and_batch(threads, tiny_config())
        assert ref.phase_stats.spans == bat.phase_stats.spans
        assert_identical(bat, ref)


class TestConfigurationGates:
    """State that couples cores must bypass the batch engine entirely."""

    def test_banked_dram_falls_back_to_reference(self):
        cfg = replace(tiny_config(), batch_path=True, dram="banked")
        assert not supports_batch_path(cfg)
        threads = [[Load(private(0, i)) for i in range(8)], [Load(0), Store(0)]]
        got = Machine(cfg).run(program_of(threads))
        ref = Machine(replace(cfg, batch_path=False)).run(program_of(threads))
        assert got.engine == "reference"
        assert_identical(got, ref)

    def test_contended_bus_falls_back(self):
        cfg = replace(tiny_config(), batch_path=True, bus_occupancy=2)
        assert not supports_batch_path(cfg)
        threads = [[Load(0), Store(0)], [Load(0), Store(0)]]
        got = Machine(cfg).run(program_of(threads))
        assert got.engine == "reference"

    def test_every_differential_config_supports_batch(self):
        for name, cfg in CONFIGS.items():
            assert supports_batch_path(replace(cfg, batch_path=True)), name
