"""Regenerate ``expected.json``: the output digests the benchmark checks.

Run only when a change is *meant* to alter outputs, and say so in its
description::

    python benchmarks/e2e/run.py --record-expected

Records the sha256 of every ``runall --json`` report (and of the smoke
test's ``run table2`` report), and the simx-merge digest of every
(seed, program, config) for seeds 0–15 (the default and held-out seeds
among them), on the reference engine.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import wl_runall
import wl_simx
from bench_common import BenchError, child_env, cleanup, run_child, scratch_dir

SIMX_SEEDS = range(16)


def _reports(args: "list[str]", ok_codes, tmp: Path) -> "dict[str, str]":
    out = tmp / "out"
    _, code, _ = run_child([sys.executable, "-m", "repro", *args, "--json", str(out)],
                           child_env(tmp), cwd=tmp, stdout_path=tmp / "log")
    if code not in ok_codes:
        raise BenchError(f"`repro {' '.join(args)}` exited {code}")
    return wl_runall.report_digests(out)


def record(path: Path) -> None:
    from repro.simx import Machine

    expected: dict = {}
    for key, args, codes in (("runall", wl_runall.FULL_ARGS, (0,)),
                             ("runall-smoke", wl_runall.SMOKE_ARGS,
                              wl_runall.SMOKE_OK_CODES)):
        tmp = scratch_dir(f"record-{key}")
        try:
            expected[key] = _reports(args, codes, tmp)
        finally:
            cleanup(tmp)
    for key, smoke, n_programs in (("simx-merge", False, wl_simx.FULL[0]),
                                   ("simx-merge-smoke", True, wl_simx.SMOKE[0])):
        expected[key] = {}
        for seed in SIMX_SEEDS:
            for index in range(n_programs):
                program = wl_simx.build_program(seed, index, smoke)
                for ic in wl_simx.CONFIGS:
                    cfg = wl_simx.machine_config(ic, reference=True)
                    expected[key][wl_simx.pair_key(seed, index, ic)] = \
                        wl_simx.digest(Machine(cfg).run(program))
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}: " + ", ".join(f"{k} {len(v)}" for k, v in expected.items()))
