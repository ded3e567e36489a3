#!/usr/bin/env python
"""The paper's full measurement pipeline on one workload.

Reproduces the methodology of Sections IV–V end to end:

1. build a clustering dataset and run k-means, partitioned over 1..16
   threads, on the discrete-event CMP simulator (the SESC substitute);
2. extract the Table II parameters (f, fcon, fred, fored) from the
   per-phase cycle counts;
3. validate the growing-serial-section observation on the modelled
   2-socket Xeon (Fig 2(c));
4. feed the extracted parameters into the extended model and predict
   scaling to 256 cores, next to plain Amdahl (Fig 3).

Run:  python examples/characterize_workload.py          (~30 s)
      python examples/characterize_workload.py --fast   (smaller dataset)
"""

import sys

import numpy as np

from repro.core import measured as mm
from repro.hardware import execute_workload
from repro.simx import Machine, MachineConfig
from repro.workloads import KMeansWorkload, make_blobs
from repro.workloads.instrument import (
    breakdown_from_simulation,
    extract_parameters,
    serial_growth_curve,
    speedup_curve,
)
from repro.workloads.tracegen import program_from_execution

FAST = "--fast" in sys.argv
N_POINTS = 1500 if FAST else 6000
THREADS = (1, 2, 4, 8, 16)

# ── 1. simulate across core counts ───────────────────────────────────────
print(f"simulating kmeans (N={N_POINTS}, D=9, C=8) on the Table I machine...")
workload = KMeansWorkload(
    make_blobs(N_POINTS, 9, 8, seed=11), max_iterations=4, tolerance=1e-12
)
machine = Machine(MachineConfig.baseline(n_cores=16))
breakdowns = {}
for p in THREADS:
    program = program_from_execution(workload.execute(p), mem_scale=2)
    result = machine.run(program)
    breakdowns[p] = breakdown_from_simulation(result)
    print(f"  {p:2d} threads: {result.total_cycles:>12,} cycles, "
          f"reduction {breakdowns[p].reduction:>9,.0f}")

print("\nspeedup:", {p: round(v, 2) for p, v in speedup_curve(breakdowns).items()})
print("serial growth (Fig 2b):",
      {p: round(v, 2) for p, v in serial_growth_curve(breakdowns).items()})

# ── 2. extract Table II parameters ───────────────────────────────────────
extracted = extract_parameters(breakdowns, "kmeans")
print(f"\nextracted parameters (Table II methodology):")
print(f"  serial fraction: {extracted.serial_pct:.4f}%  "
      f"(f = {1 - extracted.serial_pct / 100:.5f})")
print(f"  fcon = {extracted.fcon_share:.0%} of serial, "
      f"fred = {extracted.fred_share:.0%}")
print(f"  fored = {extracted.fored_rel:.0%} relative growth per core, "
      f"alpha = {extracted.growth_alpha:.2f}")

# ── 3. hardware validation (Fig 2c) ──────────────────────────────────────
hw = execute_workload(workload, (1, 2, 4, 8))
print("\nserial growth on the modelled Xeon (Fig 2c):",
      {p: round(v, 2) for p, v in serial_growth_curve(hw).items()})

# ── 4. predict scaling to 256 cores (Fig 3) ──────────────────────────────
params = extracted.to_measured_params()
cores = np.array([1, 4, 16, 64, 256])
amdahl_curve = np.asarray(mm.speedup_amdahl(params, cores))
extended_curve = np.asarray(mm.speedup_extended(params, cores))
print("\nprediction to 256 cores (Fig 3):")
print(f"  {'cores':>6} {'Amdahl':>8} {'extended':>9}")
for c, a, e in zip(cores, amdahl_curve, extended_curve):
    print(f"  {int(c):>6} {a:>8.1f} {e:>9.1f}")
peak_p, peak_sp = mm.peak_core_count(params)
print(f"\n=> Amdahl keeps climbing; the extended model peaks at "
      f"{peak_sp:.0f}x on {peak_p} cores and declines beyond - "
      "'naively using Amdahl's Law can lead to speedup overestimation'.")
