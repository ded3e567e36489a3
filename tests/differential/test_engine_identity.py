"""Cycle-identity fuzz: thousands of programs through both engines.

Every generated program runs through the reference interpreter and the
lockstep batch interpreter on the same (rotating) machine configuration;
all observable output — total and per-thread cycles, instruction counts,
protocol counters, per-phase busy/wait/span attribution and op
accounting — must be identical.  Seeds are chunked so a failure names a
narrow seed range that replays standalone via
``tests.differential.gen.generate_program(seed, mix)``.
"""

import os

import pytest

from tests.differential.gen import MIXES, generate_program
from tests.differential.harness import CONFIG_RING, assert_identical, run_two

#: seeds per mix; 6 mixes x 408 = 2448 programs (the acceptance bar is
#: 2000).  Override with REPRO_DIFF_SEEDS for longer CI fuzz runs.
SEEDS_PER_MIX = int(os.environ.get("REPRO_DIFF_SEEDS", "408"))
_CHUNK = 51


def test_corpus_meets_the_acceptance_bar():
    assert len(MIXES) * SEEDS_PER_MIX >= 2000


# the test id predates the removal of the third (fused fast-path) engine;
# it is kept so seed-chunk ids stay comparable across history
@pytest.mark.parametrize("start", range(0, SEEDS_PER_MIX, _CHUNK))
@pytest.mark.parametrize("mix", MIXES)
def test_three_engines_cycle_identical(mix, start):
    for seed in range(start, min(start + _CHUNK, SEEDS_PER_MIX)):
        config_name, cfg = CONFIG_RING[seed % len(CONFIG_RING)]
        program = generate_program(seed, mix)
        ref, bat = run_two(cfg, program)
        why = f"mix={mix} seed={seed} config={config_name}"
        assert ref.engine == "reference", why
        assert bat.engine == "batch", why
        assert ref.n_ops == bat.n_ops, why
        assert_identical(bat, ref)
