"""Shared plumbing for the end-to-end benchmark.

Paths, the environment every measured child process gets, a child
runner that records wall time and peak RSS, quartile summaries, and the
``--compare`` report.  Nothing here imports ``repro``: the benchmark
process keeps the system under test in child processes wherever a
number is gated, so the benchmark's own state never leaks into it.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
#: scratch space inside the checkout (caches, reports, run journals,
#: temporary files); each run uses its own subdirectory and removes it
#: at exit
WORK = ROOT / ".bench_e2e"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
EXPECTED_JSON = HERE / "expected.json"

#: a measured child that outlives this is killed and counted as failed,
#: so a hung child cannot hold a run for more than a couple of minutes
CHILD_TIMEOUT_S = 120.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, broken setup)."""


def require_sources() -> None:
    """Refuse to run without the program's sources next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro sources under {SRC}; run from a full checkout")


def load_benchmark_spec() -> dict:
    """``BENCHMARK.json``: metric names, units, directions and bounds."""
    try:
        return json.loads(BENCHMARK_JSON.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {BENCHMARK_JSON}: {exc}") from None


def scratch_dir(tag: str) -> Path:
    """A fresh, empty directory for one run (removed by :func:`cleanup`)."""
    path = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def cleanup(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK.rmdir()  # only when no other run is using it
    except OSError:
        pass


def child_env(tmp: Path) -> dict:
    """Environment for a measured ``repro`` process.

    Every cache tier and run journal points into ``tmp``, so the repo's
    own ``.repro-cache`` is never read or written; inherited ``REPRO_*``
    switches are dropped so the measured configuration is the default.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    (tmp / "tmp").mkdir(exist_ok=True)
    env.update({
        "PYTHONPATH": str(SRC),
        "REPRO_SWEEP_CACHE_DIR": str(tmp / "sweeps"),
        "REPRO_RUNS_DIR": str(tmp / "runs"),
        "TMPDIR": str(tmp / "tmp"),
    })
    return env


def run_child(argv: "list[str]", env: dict, cwd: Path,
              stdout_path: "Path | None" = None) -> "tuple[float, int, float]":
    """Run one child to completion: ``(wall_s, exit_code, peak_rss_mib)``.

    Wall time spans spawn to reap.  Peak RSS is the child's ``ru_maxrss``
    from ``wait4``; it starts from this process's peak at spawn time
    (carried through ``exec``), so spawn measured children while this
    process is still small.
    """
    out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out,
                                stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    finally:
        if stdout_path:
            out.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def time_import(module: str, env: dict, cwd: Path) -> float:
    """Seconds for a fresh interpreter to import ``module`` and exit."""
    wall, code, _ = run_child([sys.executable, "-c", f"import {module}"], env, cwd)
    if code != 0:
        raise BenchError(f"`import {module}` failed in a fresh interpreter")
    return wall


# ── statistics ────────────────────────────────────────────────────────────


def quartiles(samples: "list[float]") -> "tuple[float, float, float]":
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(samples) == 1:
        return samples[0], samples[0], samples[0]
    q1, med, q3 = statistics.quantiles(samples, n=4)
    return q1, med, q3


def metric(samples: "list[float]", unit: str) -> dict:
    """One metric record: the median as the reported value, the
    quartiles and every sample."""
    q1, med, q3 = quartiles(samples)
    return {"value": med, "unit": unit, "q1": q1, "median": med, "q3": q3,
            "n": len(samples), "samples": samples}


def percentile(sorted_vals: "list[float]", q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    idx = min(len(sorted_vals) - 1, max(0, round(q * (len(sorted_vals) - 1))))
    return sorted_vals[idx]


def host_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


# ── comparison of two recorded runs ───────────────────────────────────────


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """Print, per (workload, end-to-end metric), B's median against A's.

    ``delta`` is the change in the metric's bad direction as a share of
    A's median; ``spread`` is the wider of the two quartile spreads, as
    a share of its own median.  A metric whose spread exceeds its bound
    is *unresolved*: these runs cannot tell a change from noise.
    Returns 1 when any metric regressed beyond its bound, else 0.
    """
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    rows = []
    regressed = False
    for e2e in spec["end_to_end"]:
        name, bound = e2e["name"], e2e["bound"]
        sign = 1.0 if e2e["better"] == "lower" else -1.0
        for wl in sorted(set(a["workloads"]) & set(b["workloads"])):
            ma = a["workloads"][wl]["metrics"].get(name)
            mb = b["workloads"][wl]["metrics"].get(name)
            if not ma or not mb:
                continue
            delta = sign * (mb["median"] - ma["median"]) / ma["median"]
            spread = max((m["q3"] - m["q1"]) / m["median"] for m in (ma, mb))
            if spread > bound:
                verdict = "unresolved"
            elif delta > bound:
                verdict = "REGRESSED"
                regressed = True
            elif delta < -bound:
                verdict = "improved"
            else:
                verdict = "within bound"
            rows.append((wl, name, ma["median"], mb["median"], delta, spread,
                         bound, verdict))
    print(f"{'workload':<12} {'metric':<12} {'A median':>12} {'B median':>12} "
          f"{'worse by':>9} {'spread':>8} {'bound':>6}  verdict")
    for wl, name, ma, mb, delta, spread, bound, verdict in rows:
        print(f"{wl:<12} {name:<12} {ma:>12.5g} {mb:>12.5g} {delta:>+9.1%} "
              f"{spread:>8.1%} {bound:>6.0%}  {verdict}")
    sims_a = a.get("simulated", {})
    sims_b = b.get("simulated", {})
    shared = sorted(set(sims_a) & set(sims_b))
    if shared:
        differing = [k for k in shared if sims_a[k] != sims_b[k]]
        print(f"simulated counts: {len(shared) - len(differing)}/{len(shared)} "
              f"identical" + (f"; differ: {', '.join(differing)}" if differing else ""))
    return 1 if regressed else 0
