"""Stress parity: round-robin with pinned-affinity inputs ≡ pinned.

When every thread fits on its own core and the quantum is infinite, the
round-robin scheduler degenerates to the paper's model: the initial FIFO
dispatch places thread *i* on core *i*, last-core affinity returns every
thread to its own core after a block, and with no quantum nothing is ever
preempted.  Under those conditions the schedule — and therefore every
observable output — must be *cycle-identical* to the pinned scheduler.

The corpus is the same seeded generator the engine-identity fuzz uses
(``tests.differential.gen``): thousands of randomized programs mixing
private and shared traffic, locks, barriers and phase markers, on a
rotating ring of machine shapes.  Seeds chunk so a failure names a narrow
replayable range; ``REPRO_SCHED_SEEDS`` widens the sweep in CI.
"""

import os
from dataclasses import replace

import pytest

from repro.simx import Machine
from tests.differential.gen import MIXES, generate_program
from tests.differential.harness import CONFIG_RING, assert_identical

#: seeds per mix; 6 mixes x 408 = 2448 programs (the acceptance bar is
#: 2000).  Override with REPRO_SCHED_SEEDS for longer CI runs.
SEEDS_PER_MIX = int(os.environ.get("REPRO_SCHED_SEEDS", "408"))
_CHUNK = 51


def run_both(cfg, program):
    """One program through the pinned and round-robin reference engines."""
    base = replace(cfg, batch_path=False)
    pinned = Machine(base).run(program)
    rr = Machine(replace(base, scheduler="round-robin")).run(program)
    return pinned, rr


def test_corpus_meets_the_acceptance_bar():
    assert len(MIXES) * SEEDS_PER_MIX >= 2000


@pytest.mark.parametrize("start", range(0, SEEDS_PER_MIX, _CHUNK))
@pytest.mark.parametrize("mix", MIXES)
def test_round_robin_with_affinity_is_cycle_identical(mix, start):
    for seed in range(start, min(start + _CHUNK, SEEDS_PER_MIX)):
        config_name, cfg = CONFIG_RING[seed % len(CONFIG_RING)]
        program = generate_program(seed, mix)
        pinned, rr = run_both(cfg, program)
        why = f"mix={mix} seed={seed} config={config_name}"
        assert pinned.engine == "reference", why
        assert rr.engine == "reference", why
        assert_identical(rr, pinned)
        # the degenerate schedule really was pinned: every thread stayed
        # on its own core, nothing was ever preempted or displaced
        assert rr.sched.scheduler == "round-robin", why
        assert rr.sched.preemptions == 0, why
        assert rr.sched.migrations == 0, why
        assert rr.sched.involuntary_wait_cycles == 0, why
