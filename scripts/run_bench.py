#!/usr/bin/env python
"""Benchmark regression harness: run the suite, emit ``BENCH_simx.json``.

Runs the pytest-benchmark suites (``benchmarks/test_throughput.py``,
``benchmarks/test_engines.py`` and ``benchmarks/test_obs_overhead.py``),
derives simulated ops/sec, the batch-engine speedup ratios and the
observability overhead, times a simulator sweep cold vs disk-warm,
measures ``runall``'s resolve batch (cross-experiment unit dedup ratio
and cold-vs-warm resolve wall-clock), and writes everything to
``BENCH_simx.json`` in the repo root — the artifact CI uploads so the
perf trajectory is tracked across commits.

Usage::

    python scripts/run_bench.py [--output BENCH_simx.json] [--quick]
        [--check-against BASELINE] [--metrics-out METRICS.jsonl]
        [--fuzz-iters N] [--serve] [--sched]

``--quick`` trims benchmark rounds for a fast smoke run.
``--check-against`` is the CI regression gate: exit non-zero if any
benchmark with a known op count lost more than 25% ops/sec against the
committed baseline JSON.  ``--serve`` additionally runs the query-server
load benchmark (``scripts/run_loadgen.py --spawn``), writes
``BENCH_serve.json``, folds its headline numbers into the report, and —
when ``--check-against`` is given — gates serve QPS against the
committed ``BENCH_serve.json`` next to the baseline file.  ``--metrics-out`` additionally runs a small
instrumented sweep and writes its ``repro.obs`` metrics + spans as
JSONL (readable with ``repro stats``).  ``--fuzz-iters N`` first runs N
seeded random trace programs (``tests.differential.gen``) through both
simulator engines and asserts cycle-identity — a fast
correctness screen before trusting the perf numbers.  ``--distributed``
additionally times one fixed sweep batch executed by 1 and then 2
``repro worker`` subprocesses over localhost (the remote backend's
worker-count scaling), recorded under the report's ``distributed`` key.
``--sched`` additionally measures the scheduler layer: pinned vs
round-robin dispatch ops/sec on the same seeded corpus (the delta is
the dispatch layer's cost, since the two schedules coincide) and
wall-clock timings for 1x..4x oversubscription, recorded under
``sched``; with ``--check-against``, the pinned rate must stay within
5% of the baseline's.

The optional sections (``distributed``, ``sched``, ``serve``,
``differential_fuzz``) are carried forward from the existing ``--output``
file when this run does not re-measure them, and listed under
``carried_forward``, so regenerating the report without every flag never
drops earlier measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


def run_pytest_benchmarks(quick: bool) -> dict:
    """Run the benchmark suites and return pytest-benchmark's JSON."""
    out = Path(tempfile.mkdtemp(prefix="repro-bench-")) / "pytest-bench.json"
    cmd = [
        sys.executable, "-m", "pytest",
        str(REPO / "benchmarks" / "test_throughput.py"),
        str(REPO / "benchmarks" / "test_engines.py"),
        str(REPO / "benchmarks" / "test_obs_overhead.py"),
        "-q", "-p", "no:cacheprovider",
        "--benchmark-only",
        f"--benchmark-json={out}",
    ]
    if quick:
        cmd += ["--benchmark-min-rounds=1", "--benchmark-warmup=off"]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    res = subprocess.run(cmd, cwd=REPO, env=env)
    if res.returncode != 0:
        raise SystemExit(f"benchmark run failed (exit {res.returncode})")
    return json.loads(out.read_text())


def summarise(bench_json: dict) -> dict:
    """Per-benchmark timings and ops/sec (where op counts are known).

    ops/sec uses the *minimum* round time: scheduler noise only ever adds
    time, so the min is the most reproducible basis for a regression bar.
    """
    rows = {}
    for b in bench_json.get("benchmarks", []):
        name = b["name"]
        row = {"mean_seconds": b["stats"]["mean"], "min_seconds": b["stats"]["min"]}
        n_ops = b.get("extra_info", {}).get("n_ops")
        if n_ops:
            row["n_ops"] = n_ops
            row["ops_per_sec"] = n_ops / b["stats"]["min"]
        rows[name] = row
    return rows


def _ratio(rows: dict, stem: str) -> "float | None":
    """Batch vs reference ops/sec on one benchmark shape."""
    new = rows.get(f"{stem}[batch]")
    ref = rows.get(f"{stem}[reference]")
    if not (new and ref and "ops_per_sec" in new and "ops_per_sec" in ref):
        return None
    return new["ops_per_sec"] / ref["ops_per_sec"]


def _grid_speedup(rows: dict) -> "float | None":
    """Vectorized vs scalar wall time on the 48-point conclusions grid."""
    grid = rows.get("test_conclusions_grid_vectorized", {}).get("min_seconds")
    scalar = rows.get("test_conclusions_grid_scalar", {}).get("min_seconds")
    if not (grid and scalar):
        return None
    return scalar / grid


def run_fuzz(iters: int) -> dict:
    """N generated trace programs through both engines, asserting
    cycle-identity (the differential harness's seed corpus, re-usable as
    a pre-benchmark correctness screen)."""
    sys.path.insert(0, str(REPO))
    from tests.differential.gen import MIXES, generate_program
    from tests.differential.harness import CONFIG_RING, assert_identical, run_two

    t0 = time.perf_counter()
    for seed in range(iters):
        mix = MIXES[seed % len(MIXES)]
        config_name, cfg = CONFIG_RING[seed % len(CONFIG_RING)]
        program = generate_program(seed, mix)
        ref, bat = run_two(cfg, program)
        why = f"fuzz seed={seed} mix={mix} config={config_name}"
        assert ref.n_ops == bat.n_ops, why
        assert_identical(bat, ref)
    dt = time.perf_counter() - t0
    return {
        "iters": iters,
        "seconds": round(dt, 3),
        "programs_per_sec": round(iters / dt, 1) if dt else None,
    }


def obs_overhead(rows: dict) -> dict:
    """Observability cost ratios vs the bare ``Machine._run`` loop."""
    bare = rows.get("test_bare_loop", {}).get("min_seconds")
    out = {}
    for mode in ("disabled", "enabled"):
        row = rows.get(f"test_obs_{mode}", {})
        if bare and row.get("min_seconds"):
            out[f"{mode}_overhead_x"] = round(row["min_seconds"] / bare, 4)
    return out


def check_regressions(rows: dict, baseline: dict, threshold: float = 0.25) -> list:
    """Benchmarks that lost more than ``threshold`` ops/sec vs baseline."""
    failures = []
    base_rows = baseline.get("benchmarks", {})
    for name, row in sorted(rows.items()):
        old = base_rows.get(name, {}).get("ops_per_sec")
        new = row.get("ops_per_sec")
        if not (old and new):
            continue
        drop = 1.0 - new / old
        if drop > threshold:
            failures.append(
                f"{name}: {new:,.0f} ops/s vs baseline {old:,.0f} (-{drop:.0%})"
            )
    return failures


def collect_metrics(path: Path) -> None:
    """Run a small instrumented sweep and dump its metrics/spans as JSONL."""
    from repro import obs
    from repro.pipeline import get_disk_store, set_disk_store, simulate_breakdowns
    from repro.workloads import default_workloads

    obs.set_enabled(True)
    restore = get_disk_store()
    try:
        with tempfile.TemporaryDirectory(prefix="repro-obsbench-") as tmp:
            set_disk_store(tmp)
            wl = default_workloads(0.03)["kmeans"]
            simulate_breakdowns(wl, (1, 2), n_cores=4, mem_scale=4)
        obs.write_jsonl(path, meta={"command": "scripts/run_bench.py"})
    finally:
        set_disk_store(restore)
        obs.set_enabled(False)
        obs.reset()
        obs.RECORDER.clear()


def time_sweep_cache(scale: float = 0.05, threads: tuple = (1, 2, 4)) -> dict:
    """Cold vs disk-warm wall time for a small simulator sweep."""
    from repro import engine
    from repro.pipeline import get_disk_store, set_disk_store, simulate_breakdowns
    from repro.workloads import default_workloads

    restore = get_disk_store()
    try:
        with tempfile.TemporaryDirectory(prefix="repro-sweep-") as tmp:
            set_disk_store(tmp)
            wl = default_workloads(scale)["kmeans"]

            t0 = time.perf_counter()
            cold = simulate_breakdowns(wl, threads, n_cores=4, mem_scale=4)
            cold_s = time.perf_counter() - t0

            with engine.session(1) as sess:
                t0 = time.perf_counter()
                warm = simulate_breakdowns(wl, threads, n_cores=4, mem_scale=4)
                warm_s = time.perf_counter() - t0
            # the warm pass's session settled every unit by a hit or a run
            hits, misses = sess.stats["cache_hits"], sess.stats["executed"]
    finally:
        set_disk_store(restore)

    assert {p: w.total for p, w in cold.items()} == {p: w.total for p, w in warm.items()}
    return {
        "cold_seconds": round(cold_s, 4),
        "disk_warm_seconds": round(warm_s, 4),
        "warm_speedup": round(cold_s / warm_s, 1) if warm_s else None,
        "hit_rate": hits / (hits + misses),
        "disk_hits": hits,
        "misses": misses,
    }


def time_runall_precompute() -> dict:
    """``runall``'s resolve batch: declare every experiment's units,
    measure the cross-experiment dedup ratio, and time resolving the
    union cold vs disk-warm."""
    from repro.experiments.registry import SPECS, declare_units
    from repro.pipeline import get_disk_store, resolve_units, set_disk_store

    options = dict(scale=0.03, thread_counts=(1, 2, 16))
    declaring = sorted(eid for eid, spec in SPECS.items() if spec.declares_units)
    units = []
    for eid in declaring:
        units.extend(declare_units(eid, **options))
    unique = {u.key for u in units}

    restore = get_disk_store()
    try:
        with tempfile.TemporaryDirectory(prefix="repro-runall-") as tmp:
            set_disk_store(tmp)

            t0 = time.perf_counter()
            resolve_units(units)
            cold_s = time.perf_counter() - t0

            t0 = time.perf_counter()
            resolve_units(units)
            warm_s = time.perf_counter() - t0
    finally:
        set_disk_store(restore)

    return {
        "experiments": len(declaring),
        "declared_units": len(units),
        "unique_units": len(unique),
        "dedup_ratio": round(len(units) / len(unique), 3),
        "cold_seconds": round(cold_s, 4),
        "disk_warm_seconds": round(warm_s, 4),
        "warm_speedup": round(cold_s / warm_s, 1) if warm_s else None,
    }


def time_distributed(worker_counts=(1, 2)) -> dict:
    """Worker-count scaling for the remote execution backend.

    One fixed table2 sweep batch, executed by N real ``repro worker``
    subprocesses over localhost sockets (protocol, pickling and framing
    costs included), against the same units executed inline — the number
    that says what adding workers actually buys at this unit size.
    """
    from repro.engine.events import EventLog
    from repro.engine.remote import RemotePool
    from repro.engine.units import execute
    from repro.experiments.registry import declare_units

    options = dict(scale=0.2, thread_counts=(1, 2, 4))
    units = list({u.key: u for u in
                  declare_units("table2", **options)}.values())

    t0 = time.perf_counter()
    for u in units:
        execute(u.kind, u.spec)
    serial_s = time.perf_counter() - t0

    out = {"units": len(units), "serial_seconds": round(serial_s, 4),
           "workers": {}}
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for n in worker_counts:
        events = EventLog()
        pool = RemotePool("127.0.0.1:0", lease_timeout=600.0, events=events)
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "repro", "worker", "--connect",
                 pool.address, "--name", f"bench-w{i}", "--retry-for", "60"],
                env=env, cwd=REPO,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            for i in range(n)
        ]
        try:
            # time the execution, not the workers' interpreter startup:
            # the clock starts once all N workers are connected
            deadline = time.monotonic() + 60
            while (events.count("worker_connected") < n
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            t0 = time.perf_counter()
            results = pool.run(units)
            dt = time.perf_counter() - t0
        finally:
            pool.close()
            for p in procs:
                p.terminate()
            for p in procs:
                try:
                    p.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    p.kill()
        assert len(results) == len(units)
        out["workers"][str(n)] = {
            "seconds": round(dt, 4),
            "speedup_vs_serial": round(serial_s / dt, 2) if dt else None,
        }
    return out


def time_sched(quick: bool = False) -> dict:
    """Dispatch-layer cost and oversubscription scaling.

    Pinned vs round-robin on the *same* seeded program corpus, both on
    the reference engine with one thread per core: the round-robin
    schedule degenerates to the pinned one (see ``tests/sched``), so the
    ops/sec delta is purely the scheduler layer's dispatch overhead.
    Then a fixed compute workload at 1x..4x threads per core, timing the
    wall clock and recording the simulated dispatch accounting.
    """
    from dataclasses import replace

    from repro.simx import (
        Compute,
        Machine,
        MachineConfig,
        ThreadTrace,
        TraceProgram,
    )

    sys.path.insert(0, str(REPO))
    from tests.differential.gen import MIXES, generate_program

    base = replace(MachineConfig.baseline(n_cores=4), batch_path=False)
    n_programs = 8 if quick else 24
    programs = [generate_program(seed, MIXES[seed % len(MIXES)])
                for seed in range(n_programs)]

    def rate(cfg):
        for prog in programs:  # untimed warmup pass
            Machine(cfg).run(prog)
        best = None
        ops = 0
        for _ in range(1 if quick else 3):
            ops = 0
            t0 = time.perf_counter()
            for prog in programs:
                ops += Machine(cfg).run(prog).n_ops
            dt = time.perf_counter() - t0
            best = dt if best is None or dt < best else best
        return ops / best

    pinned_rate = rate(base)
    rr_rate = rate(replace(base, scheduler="round-robin"))

    def wide_program(n_threads, total=240_000):
        per = max(200, total // n_threads)
        return TraceProgram(f"wide-{n_threads}", [
            ThreadTrace(t, [Compute(200)] * (per // 200))
            for t in range(n_threads)
        ])

    oversub = {}
    cfg = replace(base, scheduler="round-robin", quantum=1000,
                  migration_cost=20)
    for ratio in (1, 2, 4):
        prog = wide_program(4 * ratio)
        t0 = time.perf_counter()
        res = Machine(cfg).run(prog)
        oversub[f"{ratio}x"] = {
            "threads": 4 * ratio,
            "wall_seconds": round(time.perf_counter() - t0, 4),
            "simulated_cycles": res.total_cycles,
            "preemptions": res.sched.preemptions,
            "migrations": res.sched.migrations,
        }

    return {
        "programs": n_programs,
        "pinned_ops_per_sec": round(pinned_rate, 1),
        "round_robin_ops_per_sec": round(rr_rate, 1),
        "dispatch_overhead_x": (round(pinned_rate / rr_rate, 3)
                                if rr_rate else None),
        "oversubscription": oversub,
    }


def check_sched_regression(sched: dict, baseline: dict,
                           threshold: float = 0.05) -> list:
    """The pinned dispatch rate must stay within ``threshold`` of the
    committed baseline — the scheduler refactor's "don't slow the
    paper's path" bar, tighter than the generic 25%% ops/sec gate.
    Skipped when the baseline predates the ``sched`` section."""
    old = (baseline or {}).get("sched", {}).get("pinned_ops_per_sec")
    new = sched.get("pinned_ops_per_sec")
    if not (old and new):
        return []
    drop = 1.0 - new / old
    if drop > threshold:
        return [f"pinned dispatch {new:,.0f} ops/s vs baseline "
                f"{old:,.0f} (-{drop:.0%}, bar is {threshold:.0%})"]
    return []


#: report sections only some runs measure (behind --distributed, --sched,
#: --serve, --fuzz-iters); a run that skips one keeps the previous value
CARRIED_SECTIONS = ("distributed", "sched", "serve", "differential_fuzz")


def read_previous(path: Path) -> "dict | None":
    """The report already at ``path``, or None if absent or unreadable."""
    try:
        previous = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return previous if isinstance(previous, dict) else None


def carry_forward(report: dict, previous: "dict | None") -> dict:
    """Copy the optional sections this run did not re-measure from the
    previous report, naming them under ``carried_forward``."""
    carried = [key for key in CARRIED_SECTIONS
               if key not in report and key in (previous or {})]
    for key in carried:
        report[key] = previous[key]
    if carried:
        report["carried_forward"] = carried
    return report


def run_serve_bench(output: Path, duration: float,
                    check_against: "Path | None") -> "tuple[dict, list]":
    """The serve load benchmark via ``run_loadgen`` (same interpreter);
    returns its headline numbers and any gate failures."""
    sys.path.insert(0, str(REPO / "scripts"))
    import run_loadgen

    argv = ["--spawn", "--duration", str(duration), "--check",
            "--output", str(output)]
    if check_against is not None:
        argv += ["--check-against", str(check_against)]
    rc = run_loadgen.main(argv)
    report = json.loads(output.read_text())
    summary = {
        "qps": report["qps"],
        "p50_ms": report["latency_ms"]["p50"],
        "p99_ms": report["latency_ms"]["p99"],
        "lru_hit_rate": report["cache"]["lru_hit_rate"],
    }
    return summary, ([] if rc == 0 else ["serve benchmark gate failed "
                                         "(see run_loadgen output above)"])


def main(argv: "list[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--output", default=str(REPO / "BENCH_simx.json"))
    ap.add_argument("--quick", action="store_true",
                    help="single benchmark round (smoke run)")
    ap.add_argument("--check-against", metavar="BASELINE",
                    help="fail on >25%% ops/sec regression vs this BENCH json")
    ap.add_argument("--metrics-out", metavar="FILE",
                    help="write repro.obs metrics JSONL from an instrumented sweep")
    ap.add_argument("--fuzz-iters", type=int, metavar="N", default=0,
                    help="run N differential fuzz programs through both "
                         "engines before benchmarking")
    ap.add_argument("--serve", action="store_true",
                    help="also run the serve load benchmark "
                         "(writes BENCH_serve.json)")
    ap.add_argument("--serve-output", default=str(REPO / "BENCH_serve.json"))
    ap.add_argument("--serve-duration", type=float, default=8.0)
    ap.add_argument("--distributed", action="store_true",
                    help="also time a sweep batch on 1 vs 2 remote "
                         "'repro worker' subprocesses (worker-count scaling)")
    ap.add_argument("--sched", action="store_true",
                    help="also measure scheduler-layer dispatch cost "
                         "(pinned vs round-robin ops/sec) and "
                         "oversubscription timings")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))

    fuzz = None
    if args.fuzz_iters:
        fuzz = run_fuzz(args.fuzz_iters)
        print(f"differential fuzz: {fuzz['iters']} programs cycle-identical "
              f"across 2 engines ({fuzz['programs_per_sec']} programs/s)")

    out = Path(args.output)
    # read before benchmarks run, like the baseline below
    previous = read_previous(out)

    baseline = None
    if args.check_against:
        baseline_path = Path(args.check_against)
        if baseline_path.exists():
            # read before benchmarks run: --output may point at the same file
            baseline = json.loads(baseline_path.read_text())
        else:
            print(f"note: baseline {baseline_path} not found; gate skipped")

    bench_json = run_pytest_benchmarks(args.quick)
    rows = summarise(bench_json)
    report = {
        "schema": 4,
        "machine_info": bench_json.get("machine_info", {}).get("cpu", {}),
        "python": bench_json.get("machine_info", {}).get("python_version"),
        "benchmarks": rows,
        "engine": {
            "private_burst_batch_speedup": _ratio(rows, "test_private_burst"),
            "shared_heavy_batch_ratio": _ratio(rows, "test_shared_heavy"),
            "kmeans_mix_batch_speedup": _ratio(rows, "test_kmeans_mix"),
        },
        "model_grid_speedup": _grid_speedup(rows),
        "obs": obs_overhead(rows),
        "sweep_cache": time_sweep_cache(),
        "runall_precompute": time_runall_precompute(),
    }
    if fuzz is not None:
        report["differential_fuzz"] = fuzz
    if args.distributed:
        report["distributed"] = time_distributed()
    if args.sched:
        report["sched"] = time_sched(args.quick)

    serve_failures: list = []
    if args.serve:
        serve_baseline = None
        if args.check_against:
            # the serve baseline is the committed BENCH_serve.json in the
            # same directory as the simx baseline
            serve_baseline = Path(args.check_against).parent / "BENCH_serve.json"
        report["serve"], serve_failures = run_serve_bench(
            Path(args.serve_output), args.serve_duration, serve_baseline)

    carry_forward(report, previous)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    if args.metrics_out:
        collect_metrics(Path(args.metrics_out))
        print(f"wrote obs metrics to {args.metrics_out}")

    eng = report["engine"]
    print(f"\nwrote {out}")
    for k, v in eng.items():
        print(f"  {k:28} {v:.2f}x" if v else f"  {k:28} n/a")
    mg = report["model_grid_speedup"]
    print(f"  model_grid_speedup           {mg:.1f}x" if mg
          else "  model_grid_speedup           n/a")
    for k, v in report["obs"].items():
        print(f"  obs {k:20} {v:.3f}x")
    sc = report["sweep_cache"]
    print(f"  sweep cold -> disk-warm  {sc['cold_seconds']}s -> "
          f"{sc['disk_warm_seconds']}s (hit rate {sc['hit_rate']:.0%})")
    rp = report["runall_precompute"]
    print(f"  runall precompute        {rp['declared_units']} units -> "
          f"{rp['unique_units']} unique (dedup {rp['dedup_ratio']}x); "
          f"cold {rp['cold_seconds']}s -> warm {rp['disk_warm_seconds']}s")

    if "carried_forward" in report:
        print(f"  carried forward          {', '.join(report['carried_forward'])}")

    if "distributed" in report:
        dist = report["distributed"]
        per_n = ", ".join(
            f"{n}w {w['seconds']}s ({w['speedup_vs_serial']}x)"
            for n, w in sorted(dist["workers"].items()))
        print(f"  distributed              {dist['units']} units, serial "
              f"{dist['serial_seconds']}s; {per_n}")

    if "sched" in report:
        sd = report["sched"]
        per_ratio = ", ".join(
            f"{r} {w['wall_seconds']}s/{w['preemptions']}p"
            for r, w in sorted(sd["oversubscription"].items()))
        print(f"  sched dispatch           pinned "
              f"{sd['pinned_ops_per_sec']:,.0f} ops/s, round-robin "
              f"{sd['round_robin_ops_per_sec']:,.0f} ops/s "
              f"({sd['dispatch_overhead_x']}x); oversub {per_ratio}")

    if "serve" in report:
        sv = report["serve"]
        hit = sv["lru_hit_rate"]
        print(f"  serve                    {sv['qps']:,} qps, "
              f"p50 {sv['p50_ms']}ms / p99 {sv['p99_ms']}ms, "
              f"lru hit rate {f'{hit:.0%}' if hit is not None else 'n/a'}")

    ok = True
    if serve_failures:
        for f in serve_failures:
            print(f"FAIL: {f}")
        ok = False
    if (eng["private_burst_batch_speedup"]
            and eng["private_burst_batch_speedup"] < 3.0):
        print("FAIL: batch engine below the 3x private-burst acceptance bar")
        ok = False
    if eng["kmeans_mix_batch_speedup"] and eng["kmeans_mix_batch_speedup"] < 2.0:
        print("FAIL: batch engine below the 2x kmeans-mix acceptance bar")
        ok = False
    if eng["shared_heavy_batch_ratio"] and eng["shared_heavy_batch_ratio"] < 0.9:
        print("FAIL: batch engine regresses the shared-heavy benchmark")
        ok = False
    if mg and mg < 5.0:
        print("FAIL: vectorized model grid below the 5x acceptance bar")
        ok = False
    if baseline is not None and args.sched:
        sched_failures = check_sched_regression(report["sched"], baseline)
        for f in sched_failures:
            print(f"FAIL: scheduler regression: {f}")
        if sched_failures:
            ok = False
        else:
            print("  sched dispatch gate vs baseline: pass (within 5%)")
    if baseline is not None:
        failures = check_regressions(rows, baseline)
        for f in failures:
            print(f"FAIL: ops/sec regression: {f}")
        if failures:
            ok = False
        else:
            print("  regression gate vs baseline: pass (within 25%)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
