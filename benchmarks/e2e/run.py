#!/usr/bin/env python
"""End-to-end benchmark of the merging-phases reproduction.

One command measures what a user of the system waits for — cold and
warm ``repro runall``, simulating merge-phase programs, and ``repro
serve`` latency on cache-missing and cache-hitting traffic — checks
that every output is correct, and prints each end-to-end metric with
its unit, median and quartiles::

    python benchmarks/e2e/run.py                      # every workload
    python benchmarks/e2e/run.py --workload serve-miss --seed 7
    python benchmarks/e2e/run.py --trace              # per-layer attribution
    python benchmarks/e2e/run.py --out a.json         # full record
    python benchmarks/e2e/run.py --compare a.json b.json
    python benchmarks/e2e/run.py --smoke              # < 60 s sanity pass

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` untraced, the per-layer metrics with ``--trace``.
The exit code is 0 when every check passed, 1 when a check failed and
2 when the benchmark could not run.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import wl_runall  # noqa: E402
import wl_serve  # noqa: E402
import wl_simx  # noqa: E402
from bench_common import (  # noqa: E402
    EXPECTED_JSON,
    ROOT,
    SRC,
    BenchError,
    cleanup,
    compare,
    host_info,
    load_benchmark_spec,
    require_sources,
    scratch_dir,
)

#: the seed the recorded numbers use, and the one held out for checking
#: a claimed gain on inputs it was not tuned on
DEFAULT_SEED = 1
HELD_OUT_SEED = 2


def run_workload(name: str, seed: int, seconds: float, smoke: bool,
                 expected: dict) -> dict:
    if name in ("runall-cold", "runall-warm"):
        return wl_runall.run(name, seconds, smoke, expected)
    if name == "simx-merge":
        return wl_simx.run(seed, seconds, smoke, expected)
    if name in ("serve-miss", "serve-hit"):
        return wl_serve.run(name, seed, seconds, smoke)
    raise BenchError(f"unknown workload {name!r}")


def run_isolated(name: str, args: argparse.Namespace) -> dict:
    """One workload in a fresh benchmark process, as ``--workload`` runs it.

    A child's peak RSS includes its parent's at spawn time (it is carried
    through exec), so a workload must not follow one that grew this
    process, e.g. by importing ``repro`` for an output check.
    """
    tmp = scratch_dir(f"all-{name}")
    try:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--expected", str(args.expected), "--out", str(tmp / "record.json")]
        proc = subprocess.run(argv + (["--smoke"] if args.smoke else []),
                              capture_output=True, text=True)
        if proc.returncode not in (0, 1):
            raise BenchError(f"{name}: {proc.stderr.strip()[-800:]}")
        return json.loads((tmp / "record.json").read_text())["workloads"][name]
    finally:
        cleanup(tmp)


def _print_metrics(label: str, metrics: dict, order: "list[str]") -> None:
    for name in order:
        m = metrics[name]
        if "q1" in m:
            print(f"  {label:<12} {name:<34} {m['value']:>12.6g} {m['unit']:<7} "
                  f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n={m['n']}")
        else:
            print(f"  {label:<12} {name:<34} {m['value']:>12.6g} {m['unit']}")


def _check_names(result: dict, wanted: "list[dict]", label: str) -> None:
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise BenchError(f"{label}: metric {m['name']} [{m['unit']}] not measured")


def _report(label: str, result: dict, names: "list[str]") -> None:
    _print_metrics(label, result["metrics"], names)
    for f in result.get("failures", [])[:20]:
        print(f"  CHECK FAILED {label}: {f}")
    if result.get("unchecked"):
        print(f"  {label}: no recorded digest for {len(result['unchecked'])} "
              f"output(s) (unchecked): {', '.join(result['unchecked'][:6])}")


def _final_line(results: "dict[str, dict]", names: "list[str]") -> dict:
    single = len(results) == 1
    metrics = {}
    for wl, res in results.items():
        for name in names:
            m = res["metrics"][name]
            metrics[name if single else f"{wl}/{name}"] = {"value": m["value"],
                                                          "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: "list[str] | None" = None) -> int:
    spec = load_benchmark_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is "
                         "held out for checking claims)")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="measured seconds per workload run")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="run the traced pass instead")
    ap.add_argument("--trace-out", type=Path, default=None,
                    help="Chrome trace-event JSON path for --trace "
                         "(default .bench_e2e_out/trace.json)")
    ap.add_argument("--out", type=Path, default=None,
                    help="write the full record (every sample) as JSON")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two --out records and exit")
    ap.add_argument("--smoke", action="store_true",
                    help="small sizes, for the smoke test")
    ap.add_argument("--expected", type=Path, default=EXPECTED_JSON,
                    help="recorded output digests (default expected.json)")
    ap.add_argument("--record-expected", action="store_true",
                    help="rewrite --expected from this checkout's outputs")
    args = ap.parse_args(argv)

    try:
        if args.compare:
            return compare(*args.compare, spec)
        require_sources()
        sys.path.insert(0, str(SRC))
        if args.record_expected:
            import record_expected

            record_expected.record(args.expected)
            return 0
        try:
            expected = json.loads(args.expected.read_text())
        except (OSError, ValueError) as exc:
            raise BenchError(f"cannot read {args.expected}: {exc}") from None
        if args.trace:
            import layertrace

            trace_out = args.trace_out or ROOT / ".bench_e2e_out" / "trace.json"
            results = {"trace": layertrace.traced_pass(
                args.seed, args.smoke, expected, trace_out)}
            names = [m["name"] for m in spec["per_layer"]]
            _check_names(results["trace"], spec["per_layer"], "trace")
        else:
            names = [m["name"] for m in spec["end_to_end"]]
            if args.workload == "all":
                results = {wl: run_isolated(wl, args) for wl in workloads}
            else:
                t0 = time.perf_counter()
                res = run_workload(args.workload, args.seed, args.seconds,
                                   args.smoke, expected)
                res["wall_s"] = time.perf_counter() - t0
                results = {args.workload: res}
            for wl, res in results.items():
                _check_names(res, spec["end_to_end"], wl)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    print(f"host: {json.dumps(host_info())}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}")
    for wl, res in results.items():
        _report(wl, res, names)
    if args.out:
        simulated = {k: v for r in results.values() for k, v in r.get("simulated", {}).items()}
        record = {"host": host_info(), "seed": args.seed, "seconds": args.seconds,
                  "smoke": args.smoke, "traced": bool(args.trace),
                  "workloads": results, "simulated": simulated}
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    final = _final_line(results, names)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
