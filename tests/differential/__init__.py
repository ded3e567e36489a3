"""Differential-equivalence harness: two engines, one observable truth.

The simulator has two execution engines — the op-at-a-time reference
interpreter and the lockstep batch interpreter (``repro.simx.batch``) —
plus scalar and vectorized (``repro.core.gridkernels``) evaluators of the
paper's Eq 1-8 model.  This package is the gate that keeps them
interchangeable:

* :mod:`tests.differential.gen` — a seeded random trace-program
  generator (stdlib ``random`` only, so ``scripts/run_bench.py`` can
  reuse it without hypothesis);
* :mod:`tests.differential.harness` — the shared machine shapes,
  two-engine runner and all-fields comparison;
* ``test_engine_identity`` — thousands of generated programs, each run
  through both engines and compared on every observable field;
* ``test_fallback_boundaries`` — directed traces pinning the exact
  fallback seams (eviction hazard, coherence event, phase transition
  inside an epoch) and the configurations that must bypass batch
  execution entirely (banked DRAM, contended bus);
* ``test_model_oracles`` — randomized grids where the vectorized
  kernels must match scalar oracles bit-for-bit;
* ``test_obs_parity`` — the obs metrics count each run exactly once,
  with the correct engine label, whichever engine ran.
"""
