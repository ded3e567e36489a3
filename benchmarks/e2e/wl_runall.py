"""``runall-cold`` and ``runall-warm``: the researcher's path through every layer.

Each measured invocation is ``python -m repro runall --parallel 1 --json
DIR`` in a fresh process.  Cold runs start from empty cache tiers; warm
runs reuse the disk cache one cold run left behind.  ``--parallel 1``
because a host with one or two CPUs cannot show pool scaling.  The
inputs are the paper's 25 experiments, so the seed does not change them.

Every report file is checked against the sha256 recorded in
``expected.json`` (the reports are byte-identical run to run), and warm
reports must equal the cold reports byte for byte.
"""

from __future__ import annotations

import hashlib
import sys
import time
from pathlib import Path

from bench_common import child_env, cleanup, metric, run_child, scratch_dir, time_import

SETUP_REPS = 3
MIN_REPS = 3

FULL_ARGS = ["runall", "--parallel", "1"]
#: the smoke test's stand-in: one small experiment, same cold/warm shape
SMOKE_ARGS = ["run", "table2", "--scale", "0.03", "--threads", "1,2"]
#: ``run`` exits 1 when paper comparisons cannot hold at a tiny scale;
#: the report bytes are still checked
SMOKE_OK_CODES = (0, 1)


def report_digests(out_dir: Path) -> "dict[str, str]":
    """experiment id -> sha256 of its ``--json`` report file."""
    return {p.stem: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.glob("*.json"))}


class Checker:
    """Counts experiments checked and failed across invocations."""

    def __init__(self, expected: "dict[str, str]"):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.failures: "list[str]" = []
        self.unchecked: "set[str]" = set()

    def check(self, label: str, digests: "dict[str, str]", exit_ok: bool,
              reference: "dict[str, str] | None" = None) -> None:
        """Check one invocation's reports; a bad exit fails all of them."""
        ids = sorted(set(self.expected) | set(digests))
        self.attempted += len(ids)
        if not exit_ok:
            self.failed += len(ids)
            self.failures.append(f"{label}: non-zero exit")
            return
        for eid in ids:
            got = digests.get(eid)
            if got is None:
                problem = "report missing"
            elif reference is not None and reference.get(eid) != got:
                problem = "differs from the cold report"
            elif eid not in self.expected:
                self.unchecked.add(eid)
                continue
            elif self.expected[eid] != got:
                problem = f"sha256 {got[:12]} != expected {self.expected[eid][:12]}"
            else:
                continue
            self.failed += 1
            self.failures.append(f"{label}: {eid} {problem}")


def _invoke(args: "list[str]", cache: Path, out_dir: Path, log: Path,
            ok_codes) -> "tuple[float, bool, float, dict]":
    wall, code, rss = run_child(
        [sys.executable, "-m", "repro", *args, "--json", str(out_dir)],
        child_env(cache), cwd=cache, stdout_path=log)
    return wall, code in ok_codes, rss, report_digests(out_dir)


def run(workload: str, seconds: float, smoke: bool, expected: dict) -> dict:
    warm = workload == "runall-warm"
    args, ok_codes = (SMOKE_ARGS, SMOKE_OK_CODES) if smoke else (FULL_ARGS, (0,))
    checker = Checker(expected.get("runall-smoke" if smoke else "runall", {}))
    tmp = scratch_dir(workload)
    try:
        base_env = child_env(tmp)
        setup = [time_import("repro.cli", base_env, tmp) for _ in range(SETUP_REPS)]

        walls: "list[float]" = []
        rss: "list[float]" = []
        cold_digests = None
        if warm:  # one cold run leaves the disk cache every warm run reads
            cache = tmp / "cache"
            cache.mkdir()
            _, ok, _, cold_digests = _invoke(args, cache, tmp / "out-cold",
                                             tmp / "cold.log", ok_codes)
            checker.check("cold", cold_digests, ok)
        start = time.perf_counter()
        i = 0
        while len(walls) < MIN_REPS or time.perf_counter() - start < seconds:
            if not warm:
                cache = tmp / f"cache{i}"
                cache.mkdir()
            out_dir = tmp / f"out{i}"
            wall, ok, peak, digests = _invoke(args, cache, out_dir,
                                              tmp / f"run{i}.log", ok_codes)
            checker.check(f"{'warm' if warm else 'cold'} #{i}", digests, ok,
                          reference=cold_digests)
            walls.append(wall)
            rss.append(peak)
            i += 1
    finally:
        cleanup(tmp)
    return {
        "metrics": {
            "setup_s": metric(setup, "s"),
            "latency_ms": metric([w * 1e3 for w in walls], "ms"),
            "rss_mb": metric(rss, "MiB"),
        },
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failures": checker.failures,
        "unchecked": sorted(checker.unchecked),
        "repeats": {"setup": len(setup), "invocations": len(walls)},
    }
