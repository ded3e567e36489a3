"""``serve-miss`` and ``serve-hit``: request latency of ``repro serve``.

The server is ``python -m repro serve`` with default flags in its own
process.  The load generator is this process: an **open loop** of
``min(2, cpu_count)`` threads, one keep-alive connection each, sending
on a fixed schedule whatever the server's speed.  Latency counts from
each request's *due* time, so a stall also charges the requests queued
behind it; how late the generator itself sent is reported separately.

* ``serve-miss`` — ``/v1/eval`` point queries over a 10^7-key space, so
  about 99% miss the LRU and every request runs parse → LRU miss →
  single-flight → micro-batcher → off-loop ``resolve_units`` → grid
  kernel → encode, with LRU evictions next to lookups.
* ``serve-hit`` — the ``mixed`` endpoint profile over 64 keys: after
  warm-up nearly everything is an LRU hit, so the same layers serve
  reads only and batcher, resolve and kernel sit almost idle.  A change
  that helps misses but slows the hit path shows up here.

Checks: every response must be a 200 (timeouts, refused connections and
other statuses count as failed requests), and every 20th ``/v1/eval``
answer must equal, exactly, ``repro.serve.queries.eval_point_batch`` run
in this process.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from bench_common import child_env, cleanup, metric, percentile, scratch_dir

#: requests per second in the measured windows.  At 300/s the generator
#: sends within a millisecond of schedule; at 1000/s a one- or two-CPU
#: host makes it run up to 13 ms late, so that rate is reported by the
#: traced pass only.
RATE = 300.0
TRACED_RATES = (300.0, 1000.0)
WINDOW_S = 2.0
SMOKE_WINDOW_S = 1.0
WARMUP_S = {"serve-miss": 1.0, "serve-hit": 2.0}
SETUP_REPS = 3
MIN_WINDOWS = 3
CHECK_EVERY = 20
REQUEST_TIMEOUT_S = 10.0
HEALTHZ_DEADLINE_S = 30.0

MODELS = ("merging-symmetric", "merging-asymmetric", "hm-symmetric", "comm-symmetric")
R_CHOICES = (1.0, 4.0, 16.0, 32.0, 64.0)
#: (endpoint mix, key space) per workload
PROFILES = {
    "serve-miss": ((("eval", 100),), 10 ** 7),
    "serve-hit": ((("eval", 70), ("sweep", 10), ("optimize", 10), ("report", 5),
                   ("healthz", 5)), 64),
}


@dataclass(frozen=True)
class Request:
    method: str
    path: str
    body: "bytes | None"
    #: the eval parameters of every CHECK_EVERY-th eval, whose answer is checked
    point: "dict | None" = None


def point_params(workload: str, seed: int, key: int) -> dict:
    """The stable parameter tuple behind one key of the key space."""
    sub = random.Random(f"{workload}:{seed}:{key}")
    return {
        "model": sub.choice(MODELS),
        "f": round(sub.uniform(0.5, 0.999), 4),
        "fcon_share": round(sub.uniform(0.1, 0.9), 3),
        "fored_share": round(sub.uniform(0.1, 0.9), 3),
        "r": sub.choice(R_CHOICES),
        "rl": sub.choice(R_CHOICES),
    }


def make_requests(workload: str, seed: int, window: int, n: int) -> "list[Request]":
    """The deterministic request stream of one window."""
    mix, keyspace = PROFILES[workload]
    names = [m for m, _ in mix]
    weights = [w for _, w in mix]
    rng = random.Random(f"{workload}:{seed}:window:{window}")
    out = []
    n_evals = 0
    for _ in range(n):
        endpoint = rng.choices(names, weights)[0]
        if endpoint == "healthz":
            out.append(Request("GET", "/healthz", None))
            continue
        if endpoint == "report":
            out.append(Request("GET", "/v1/report/fig4", None))
            continue
        q = point_params(workload, seed, rng.randrange(keyspace))
        if endpoint == "eval":
            checked = q if n_evals % CHECK_EVERY == 0 else None
            n_evals += 1
            out.append(Request("POST", "/v1/eval", json.dumps(q).encode(), checked))
        elif endpoint == "sweep":
            body = {"model": q.pop("model"), "n": 256, "points": [q]}
            out.append(Request("POST", "/v1/sweep", json.dumps(body).encode()))
        else:
            point = {k: q[k] for k in ("f", "fcon_share", "fored_share")}
            out.append(Request("POST", "/v1/optimize",
                               json.dumps({"points": [point]}).encode()))
    return out


@dataclass
class Window:
    """Latency and lateness of every request of one window, from its due time."""

    rate: float
    latency_ms: "list[float]" = field(default_factory=list)
    late_ms: "list[float]" = field(default_factory=list)

    def summary(self) -> dict:
        lat = sorted(self.latency_ms)
        late = sorted(self.late_ms)
        return {"rate": self.rate, "requests": len(lat),
                "p50_ms": percentile(lat, 0.5), "p99_ms": percentile(lat, 0.99),
                "late_p99_ms": percentile(late, 0.99)}


class OpenLoop:
    """Open-loop load from ``n_threads`` threads, one connection each.

    Counts every request due, warm-up included: ``sent``, ``failed``
    (non-200, timeout or connection error), ``statuses``, and the
    ``answers`` of the checked evals as (parameters, served speedup).
    """

    def __init__(self, host: str, port: int, n_threads: "int | None" = None):
        self.host, self.port = host, port
        self.n_threads = n_threads or min(2, os.cpu_count() or 1)
        self.conns = [self._connect() for _ in range(self.n_threads)]
        self.sent = 0
        self.failed = 0
        self.statuses: "dict[int, int]" = {}
        self.answers: "list[tuple[dict, object]]" = []

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=REQUEST_TIMEOUT_S)

    def close(self) -> None:
        for c in self.conns:
            c.close()

    def run(self, requests: "list[Request]", rate: float) -> Window:
        """Send ``requests`` at ``rate`` per second; slot k is due at
        ``start + k / rate`` and thread i takes every n-th slot."""
        win = Window(rate)
        lock = threading.Lock()
        start = time.perf_counter() + 0.01

        def worker(idx: int) -> None:
            conn = self.conns[idx]
            lat, late, answers, failed, statuses = [], [], [], 0, {}
            for k in range(idx, len(requests), self.n_threads):
                due = start + k / rate
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                req = requests[k]
                sent = time.perf_counter()
                try:
                    conn.request(req.method, req.path, body=req.body,
                                 headers={"Content-Type": "application/json"}
                                 if req.body else {})
                    resp = conn.getresponse()
                    data = resp.read()
                    status = resp.status
                except (OSError, http.client.HTTPException):
                    status, data = 0, b""
                    conn.close()
                    conn = self.conns[idx] = self._connect()
                done = time.perf_counter()
                statuses[status] = statuses.get(status, 0) + 1
                late.append((sent - due) * 1e3)
                if status != 200:
                    failed += 1
                    lat.append(float("inf"))  # a failure misses any latency limit
                    continue
                lat.append((done - due) * 1e3)
                if req.point is not None:
                    answers.append((req.point, json.loads(data).get("speedup")))
            with lock:
                win.latency_ms += lat
                win.late_ms += late
                self.answers += answers
                self.sent += len(lat)
                self.failed += failed
                for s, c in statuses.items():
                    self.statuses[s] = self.statuses.get(s, 0) + c

        threads = [threading.Thread(target=worker, args=(i,), name=f"loadgen-{i}")
                   for i in range(self.n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return win


def check_answers(answers: "list[tuple[dict, object]]") -> "list[str]":
    """Compare sampled eval answers with the kernel run in this process."""
    from repro.serve import queries

    bad = []
    for point, got in answers:
        spec = queries.MODELS[point["model"]]
        kwargs = {name: [float(point[name])] for name in spec["required"]}
        for name in spec["optional"]:
            kwargs[name] = [float(point.get(name, 1.0))]
        want = float(queries.eval_point_batch(point["model"], 256, None, None,
                                              **kwargs)["speedup"][0])
        if got != want:
            bad.append(f"eval {point}: served {got!r} != kernel {want!r}")
    return bad


def load_checks(loadgen: OpenLoop) -> "tuple[int, int, list[str]]":
    """``(attempted, failed, messages)`` over every request the generator
    sent and every eval answer it checked."""
    mismatches = check_answers(loadgen.answers)
    messages = list(mismatches)
    if loadgen.failed:
        messages.append(f"{loadgen.failed} request(s) failed; statuses {loadgen.statuses}")
    return loadgen.sent + len(loadgen.answers), loadgen.failed + len(mismatches), messages


# ── the spawned server ────────────────────────────────────────────────────

_LISTEN = re.compile(rb"listening on http://([\d.]+):(\d+)")
_METRIC_LINE = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$')


def http_get(host: str, port: int, path: str) -> "tuple[int, bytes]":
    conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def spawn_server(env: dict, cwd: Path) -> "tuple[subprocess.Popen, int, float]":
    """Start ``repro serve`` on a free port: ``(proc, port, seconds to the
    first 200 from /healthz)``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        env=env, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    try:
        line = proc.stdout.readline()
        m = _LISTEN.search(line)
        if m is None:
            raise RuntimeError(f"repro serve did not report its port: {line!r}")
        host, port = m.group(1).decode(), int(m.group(2))
        deadline = t0 + HEALTHZ_DEADLINE_S
        while True:
            try:
                if http_get(host, port, "/healthz")[0] == 200:
                    return proc, port, time.perf_counter() - t0
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("repro serve never answered /healthz")
            time.sleep(0.005)
    except BaseException:
        stop_server(proc)
        raise


def stop_server(proc: subprocess.Popen) -> float:
    """Terminate and reap the server; returns its peak RSS in MiB."""
    proc.terminate()
    killer = threading.Timer(10.0, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0


def scrape(host: str, port: int) -> dict:
    """Serving-tier counters from ``/metrics`` (and LRU evictions from
    ``/healthz``)."""
    status, body = http_get(host, port, "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    total: "dict[str, float]" = {}
    for line in body.decode().splitlines():
        m = _METRIC_LINE.match(line)
        if not m or line.startswith("#"):
            continue
        name, labels, value = m.groups()
        labels = dict(re.findall(r'(\w+)="([^"]*)"', labels or ""))
        key = name
        if name == "serve_cache_lookups_total":
            key = f"lru.{labels.get('result')}"
        elif name == "serve_evaluations_total":
            key = f"evaluations.{labels.get('kind')}"
        elif name == "serve_pipeline_tier":
            key = f"pipeline.{labels.get('tier')}.{labels.get('event')}"
        total[key] = total.get(key, 0.0) + float(value)
    hits, misses = total.get("lru.hit", 0.0), total.get("lru.miss", 0.0)
    batches = total.get("serve_batch_points_count", 0.0)
    return {
        "lru_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "coalesced": total.get("serve_coalesced_total", 0.0),
        "points_per_batch": total.get("serve_batch_points_sum", 0.0) / batches
        if batches else 0.0,
        "batches": batches,
        "evaluations": {k.split(".", 1)[1]: v for k, v in total.items()
                        if k.startswith("evaluations.")},
        "memo_entries": total.get("pipeline.memo.memory_entries", 0.0),
        "lru_evictions": json.loads(http_get(host, port, "/healthz")[1])["lru"]["evictions"],
    }


def drive(loadgen: OpenLoop, workload: str, seed: int, n_windows: int,
          window_s: float, rates: "tuple[float, ...]" = (RATE,)) -> "list[Window]":
    """Warm up, then ``n_windows`` measured windows cycling through ``rates``."""
    warm_n = int(WARMUP_S[workload] * rates[0])
    loadgen.run(make_requests(workload, seed, -1, warm_n), rates[0])
    windows = []
    for w in range(n_windows):
        rate = rates[w % len(rates)]
        windows.append(loadgen.run(
            make_requests(workload, seed, w, int(rate * window_s)), rate))
    return windows


def run(workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    window_s = SMOKE_WINDOW_S if smoke else WINDOW_S
    tmp = scratch_dir(workload)
    env = child_env(tmp)
    setup = []
    proc = None
    try:
        for _ in range(SETUP_REPS):
            if proc is not None:
                stop_server(proc)
            proc, port, seconds_to_ready = spawn_server(env, tmp)
            setup.append(seconds_to_ready)
        loadgen = OpenLoop("127.0.0.1", port)
        try:
            windows = drive(loadgen, workload, seed,
                            max(MIN_WINDOWS, round(seconds / window_s)), window_s)
        finally:
            loadgen.close()
        counters = scrape("127.0.0.1", port)
    finally:
        if proc is not None:
            rss = stop_server(proc)
        cleanup(tmp)

    attempted, failed, failures = load_checks(loadgen)
    summaries = [w.summary() for w in windows]
    return {
        "metrics": {
            "setup_s": metric(setup, "s"),
            # the median over windows of each window's p50
            "latency_ms": metric([s["p50_ms"] for s in summaries], "ms"),
            "rss_mb": metric([rss], "MiB"),
        },
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "repeats": {"setup": len(setup), "windows": len(windows),
                    "window_s": window_s, "generator_threads": loadgen.n_threads},
        "extra": {"windows": summaries, "server": counters,
                  "answers_checked": len(loadgen.answers)},
    }
