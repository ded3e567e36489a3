"""``simx-merge``: the paper's subject on the simulator itself.

Seeded 16-thread trace programs, each a private parallel phase, a
barrier, then a merge phase: lock-protected load/compute/store on a few
shared accumulator lines plus false-sharing partial writes, so the
merge serialises on locks and ping-pongs lines between cores the way a
reduction does.  Coherence, locks and the interconnect do most of the
simulator's work here, and little of it in ``runall``'s clustering
traces, which are mostly private bursts — so an engine change shows a
different ratio here than on ``runall``.

The seed draws addresses, compute lengths, lock choice and false-sharing
lines; op counts are fixed, so host time per program is comparable
across seeds.  Each program runs on the Table I baseline with a bus and
with a mesh, with default engine flags, round-robin until the run's time
is up.  The simulation runs in a child process (``python wl_simx.py
--child``) so its peak RSS is the simulator's own.

Checks: every repetition of a program must reproduce its digest (total
and per-thread cycles, coherence and phase statistics); op, read, write
and instruction counts must match the program; one (program, config)
pair per run is re-simulated on the reference engine in this process;
and digests recorded in ``expected.json`` for a seed must match.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

from bench_common import (
    BenchError, child_env, cleanup, metric, run_child, scratch_dir, time_import,
)

CONFIGS = ("bus", "mesh")
N_THREADS = 16
N_LOCKS = 4
FS_LINES = 2
LINE = 64
#: (programs, parallel iterations, merge iterations) per thread; the full
#: size is 57,696 ops per program
FULL = (6, 900, 150)
SMOKE = (1, 200, 40)

SETUP_REPS = 3
MIN_PASSES = 2


def build_program(seed: int, index: int, smoke: bool = False):
    """One deterministic merge-phase program for ``(seed, index)``."""
    from repro.simx import (
        Barrier, Compute, Load, Lock, PhaseBegin, PhaseEnd, Store, ThreadTrace,
        TraceProgram, Unlock,
    )

    _, par_iters, merge_iters = SMOKE if smoke else FULL
    rng = random.Random(f"simx-merge:{seed}:{index}")
    acc_lines = rng.sample(range(8, 64), N_LOCKS)
    fs_lines = rng.sample(range(64, 128), FS_LINES)
    threads = []
    for tid in range(N_THREADS):
        base = 0x1000 + tid * 0x400 + rng.randrange(0x100)
        ops = [PhaseBegin("parallel")]
        for _ in range(par_iters):
            addr = (base + rng.randrange(256)) * LINE
            ops += [Load(addr), Compute(rng.randrange(8, 64)), Store(addr)]
        ops += [PhaseEnd("parallel"), Barrier(0), PhaseBegin("merge")]
        for _ in range(merge_iters):
            lock = rng.randrange(N_LOCKS)
            addr = acc_lines[lock] * LINE
            ops += [Lock(lock), Load(addr), Compute(rng.randrange(4, 32)),
                    Store(addr), Unlock(lock)]
            ops.append(Store(rng.choice(fs_lines) * LINE + (tid * 4) % LINE))
        ops += [PhaseEnd("merge"), Barrier(1)]
        threads.append(ThreadTrace(tid, ops))
    return TraceProgram(f"simx-merge-{seed}-{index}", threads)


def machine_config(interconnect: str, reference: bool = False):
    """The Table I 16-core baseline; ``reference`` turns off every
    accelerated engine the configuration knows about."""
    from repro.simx import MachineConfig

    cfg = MachineConfig.baseline(N_THREADS, interconnect)
    if reference:
        knobs = {f.name for f in fields(cfg)} & {"fast_path", "batch_path"}
        cfg = replace(cfg, **{k: False for k in knobs})
    return cfg


def expected_counts(program) -> dict:
    """Operation totals the simulator must account for exactly."""
    from repro.simx import Compute, Load, Store

    n_ops = loads = stores = instructions = 0
    for t in program.threads:
        for op in t.ops:
            n_ops += 1
            kind = type(op)
            if kind is Load:
                loads += 1
            elif kind is Store:
                stores += 1
            elif kind is Compute:
                instructions += op.instructions
    return {"n_ops": n_ops, "reads": loads, "writes": stores,
            "instructions": instructions + loads + stores}


def sim_counts(result) -> dict:
    """The simulated statistics reported per program (exact, repeatable)."""
    c = result.coherence
    return {
        "sim_cycles": int(result.total_cycles),
        "merge_span_cycles": int(result.phase_wall_cycles("merge")),
        "merge_wait_cycles": int(result.phase_stats.wait_cycles("merge")),
        "invalidations": int(c.invalidations),
        "cache_to_cache": int(c.cache_to_cache),
        "upgrades": int(c.upgrades),
    }


def digest(result) -> str:
    """sha256 over total and per-thread cycles, coherence and phase stats."""
    ps = result.phase_stats
    blob = {
        "total": int(result.total_cycles),
        "threads": [int(x) for x in result.thread_cycles],
        "coherence": {f.name: int(getattr(result.coherence, f.name))
                      for f in fields(result.coherence)},
        "phases": {ph: {"busy": {str(t): int(v) for t, v in sorted(ps.busy.get(ph, {}).items())},
                        "wait": {str(t): int(v) for t, v in sorted(ps.wait.get(ph, {}).items())},
                        "span": list(ps.spans.get(ph, ()))}
                   for ph in ps.phases()},
    }
    return hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()


def invariant_failures(result, want: dict) -> "list[str]":
    got = {"n_ops": result.n_ops, "reads": result.coherence.reads,
           "writes": result.coherence.writes,
           "instructions": sum(result.instructions)}
    bad = [f"{k} {got[k]} != {want[k]}" for k in want if got[k] != want[k]]
    if result.total_cycles != max(result.thread_cycles):
        bad.append("total_cycles != max(thread_cycles)")
    return bad


def pair_key(seed: int, index: int, interconnect: str) -> str:
    return f"{seed}/{index}/{interconnect}"


# ── the measured child ────────────────────────────────────────────────────


def child_main(seed: int, seconds: float, smoke: bool) -> dict:
    """Simulate every (program, config) pair round-robin for ``seconds``."""
    from repro.simx import Machine

    n_programs = (SMOKE if smoke else FULL)[0]
    programs = [build_program(seed, i, smoke) for i in range(n_programs)]
    wants = [expected_counts(p) for p in programs]
    # the inputs stay alive across passes: keep full collections from
    # re-traversing their ~350k ops (42 ms each, landing on random runs)
    gc.collect()
    gc.freeze()
    pairs = [(i, ic) for i in range(n_programs) for ic in CONFIGS]
    machines = {ic: Machine(machine_config(ic)) for ic in CONFIGS}
    out = {pair_key(seed, i, ic): {"times": [], "errors": []} for i, ic in pairs}
    start = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        for i, ic in pairs:
            rec = out[pair_key(seed, i, ic)]
            try:
                t0 = time.perf_counter()
                result = machines[ic].run(programs[i])
                rec["times"].append(time.perf_counter() - t0)
            except Exception as exc:  # noqa: BLE001 - a failing program is a result
                rec["errors"].append(f"raised {type(exc).__name__}: {exc}")
                continue
            d = digest(result)
            if "digest" not in rec:
                rec.update(digest=d, counts=sim_counts(result), engine=result.engine,
                           ops=result.n_ops, fused=getattr(result, "n_fused_ops", 0))
                rec["errors"] += invariant_failures(result, wants[i])
            elif d != rec["digest"]:
                rec["errors"].append("digest changed between repetitions")
        passes += 1
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"pairs": out, "rss_mib": peak, "passes": passes}


# ── the parent side ───────────────────────────────────────────────────────


def run(seed: int, seconds: float, smoke: bool, expected: dict) -> dict:
    tmp = scratch_dir("simx-merge")
    try:
        env = child_env(tmp)
        setup = [time_import("repro.simx", env, tmp) for _ in range(SETUP_REPS)]
        log = tmp / "child.log"
        _, code, _ = run_child(
            [sys.executable, str(Path(__file__).resolve()), "--child", "--seed",
             str(seed), "--seconds", str(seconds)] + (["--smoke"] if smoke else []),
            env, cwd=tmp, stdout_path=log)
        lines = log.read_text().strip().splitlines()
        if code != 0 or not lines:
            raise BenchError(f"simx-merge child exited {code}: {' | '.join(lines[-5:])}")
        child = json.loads(lines[-1])
    finally:
        cleanup(tmp)

    pairs = child["pairs"]
    failures = [f"{k}: {e}" for k, rec in pairs.items() for e in rec["errors"]]
    failed_keys = {k for k, rec in pairs.items() if rec["errors"]}
    attempted = sum(len(rec["times"]) + len(rec["errors"]) for rec in pairs.values())

    known = expected.get("simx-merge-smoke" if smoke else "simx-merge", {})
    unchecked = []
    for key, rec in pairs.items():
        if "digest" not in rec:
            continue
        if key not in known:
            unchecked.append(key)
        elif known[key] != rec["digest"]:
            failures.append(f"{key}: digest {rec['digest'][:12]} != expected {known[key][:12]}")
            failed_keys.add(key)

    # differential check of one pair per run on the reference engine
    from repro.simx import Machine

    n_programs = (SMOKE if smoke else FULL)[0]
    index = seed % n_programs
    ic = CONFIGS[(seed // n_programs) % len(CONFIGS)]
    key = pair_key(seed, index, ic)
    ref = digest(Machine(machine_config(ic, reference=True)).run(
        build_program(seed, index, smoke)))
    attempted += 1
    if pairs[key].get("digest") != ref:
        failures.append(f"{key}: default engine disagrees with the reference engine")
        failed_keys.add(key)

    # one sample per pass: the mean host time of one program over every
    # (program, config) pair, so each pass weighs every pair the same
    timed = [rec["times"] for rec in pairs.values() if rec["times"]]
    if not timed:
        raise BenchError(f"simx-merge: no program completed: {failures[:3]}")
    pass_ms = [1e3 * sum(t[p] for t in timed) / len(timed)
               for p in range(min(map(len, timed)))]
    total_ops = sum(rec.get("ops", 0) * len(rec["times"]) for rec in pairs.values())
    total_fused = sum(rec.get("fused", 0) * len(rec["times"]) for rec in pairs.values())
    return {
        "metrics": {
            "setup_s": metric(setup, "s"),
            "latency_ms": metric(pass_ms, "ms"),
            "rss_mb": metric([child["rss_mib"]], "MiB"),
        },
        "attempted": attempted,
        "failed": len(failed_keys),
        "failures": failures,
        "unchecked": sorted(unchecked),
        "repeats": {"setup": len(setup), "passes": child["passes"],
                    "programs": n_programs, "configs": len(CONFIGS)},
        "simulated": {k: rec["digest"] for k, rec in pairs.items() if "digest" in rec},
        "extra": {
            "engines": sorted({rec.get("engine", "?") for rec in pairs.values()}),
            "ns_per_op": 1e9 * sum(sum(rec["times"]) for rec in pairs.values()) / total_ops
            if total_ops else None,
            "fused_share": total_fused / total_ops if total_ops else None,
            "counts": {k: rec.get("counts") for k, rec in pairs.items()},
        },
    }


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="simx-merge measured child")
    ap.add_argument("--child", action="store_true", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args()
    print(json.dumps(child_main(a.seed, a.seconds, a.smoke)))
