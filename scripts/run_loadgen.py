#!/usr/bin/env python
"""Load generator for ``repro.serve``: drive the query server, emit
``BENCH_serve.json``.

Two traffic shapes:

* **closed-loop** (default) — N worker threads, each with one persistent
  keep-alive connection, firing the next request the moment the previous
  response lands.  Measures the server's saturation throughput.
* **open-loop** — requests arrive on a fixed schedule (``--rate`` per
  second) regardless of how fast responses come back; latency is
  measured from the *scheduled* arrival, so queueing delay shows up in
  the percentiles the way it would for real users.

Traffic is a weighted endpoint mix (``--profile``); point-query
parameters are drawn from a bounded key space (``--keyspace``) so
repeats exercise the in-memory LRU tier.  After the run the generator
scrapes ``/metrics`` and folds the server-side cache-tier counters into
the report next to the client-side latency percentiles.

Usage::

    python scripts/run_loadgen.py --spawn [--mode closed|open]
        [--duration S] [--connections N] [--rate QPS]
        [--profile mixed|eval|cached] [--keyspace K] [--seed N]
        [--output BENCH_serve.json] [--check] [--check-against BASELINE]

``--spawn`` boots ``python -m repro serve`` on a free port and tears it
down afterwards; otherwise point ``--host``/``--port`` at a running
server.  ``--check`` is the CI smoke gate: fail unless ``/healthz`` and
``/metrics`` respond, every request class succeeded, and the obs
counters are non-zero.  ``--check-against`` fails on a large QPS
regression vs a committed baseline JSON.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import re
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

# weighted endpoint mixes; "cached" hammers a tiny key space so nearly
# everything after warmup is an LRU hit
PROFILES = {
    "mixed": (("eval", 70), ("sweep", 10), ("optimize", 10),
              ("report", 5), ("healthz", 5)),
    "eval": (("eval", 100),),
    "cached": (("eval", 95), ("healthz", 5)),
}

_MODELS = ("merging-symmetric", "merging-asymmetric",
           "hm-symmetric", "comm-symmetric")
_R_CHOICES = (1.0, 4.0, 16.0, 32.0, 64.0)


class RequestFactory:
    """Deterministic per-worker request stream for one profile."""

    def __init__(self, profile: str, keyspace: int, seed: int):
        self.rng = random.Random(seed)
        self.keyspace = max(1, keyspace)
        pairs = PROFILES[profile]
        self.endpoints = [name for name, _ in pairs]
        self.weights = [weight for _, weight in pairs]

    def _point(self) -> dict:
        """One point query from a key space of ``keyspace`` distinct
        parameter tuples (repeats are what the LRU tier feeds on)."""
        k = self.rng.randrange(self.keyspace)
        sub = random.Random(k)  # key index -> stable parameter tuple
        return {
            "model": sub.choice(_MODELS),
            "f": round(sub.uniform(0.5, 0.999), 4),
            "fcon_share": round(sub.uniform(0.1, 0.9), 3),
            "fored_share": round(sub.uniform(0.1, 0.9), 3),
            "r": sub.choice(_R_CHOICES),
            "rl": sub.choice(_R_CHOICES),
        }

    def next(self) -> "tuple[str, str, str, bytes | None]":
        """Returns ``(endpoint_label, method, path, body)``."""
        endpoint = self.rng.choices(self.endpoints, self.weights)[0]
        if endpoint == "eval":
            return endpoint, "POST", "/v1/eval", json.dumps(self._point()).encode()
        if endpoint == "sweep":
            q = self._point()
            body = {"model": q.pop("model"), "n": 256, "points": [q]}
            return endpoint, "POST", "/v1/sweep", json.dumps(body).encode()
        if endpoint == "optimize":
            q = self._point()
            point = {k: q[k] for k in ("f", "fcon_share", "fored_share")}
            body = {"points": [point]}
            return endpoint, "POST", "/v1/optimize", json.dumps(body).encode()
        if endpoint == "report":
            return endpoint, "GET", "/v1/report/fig4", None
        return "healthz", "GET", "/healthz", None


def _do_request(conn: http.client.HTTPConnection, method: str, path: str,
                body: "bytes | None") -> int:
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path, body=body, headers=headers)
    resp = conn.getresponse()
    resp.read()
    return resp.status


def closed_loop_worker(host: str, port: int, factory: RequestFactory,
                       deadline: float, samples: list) -> None:
    """Fire back-to-back requests on one keep-alive connection until the
    deadline; appends ``(endpoint, seconds, ok)`` per request."""
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        while time.perf_counter() < deadline:
            endpoint, method, path, body = factory.next()
            t0 = time.perf_counter()
            try:
                status = _do_request(conn, method, path, body)
                ok = status == 200
            except (OSError, http.client.HTTPException):
                ok = False
                conn.close()
                conn = http.client.HTTPConnection(host, port, timeout=30)
            samples.append((endpoint, time.perf_counter() - t0, ok))
    finally:
        conn.close()


def open_loop_worker(host: str, port: int, factory: RequestFactory,
                     start: float, rate: float, n_workers: int,
                     worker_idx: int, deadline: float, samples: list) -> None:
    """Issue requests at scheduled arrival times (this worker takes every
    ``n_workers``-th slot of the global schedule).  Latency counts from
    the *scheduled* arrival, so a slow server accrues queueing delay."""
    conn = http.client.HTTPConnection(host, port, timeout=30)
    interval = n_workers / rate
    scheduled = start + (worker_idx / rate)
    try:
        while scheduled < deadline:
            now = time.perf_counter()
            if now < scheduled:
                time.sleep(scheduled - now)
            endpoint, method, path, body = factory.next()
            try:
                status = _do_request(conn, method, path, body)
                ok = status == 200
            except (OSError, http.client.HTTPException):
                ok = False
                conn.close()
                conn = http.client.HTTPConnection(host, port, timeout=30)
            samples.append((endpoint, time.perf_counter() - scheduled, ok))
            scheduled += interval
    finally:
        conn.close()


def _percentile(sorted_vals: "list[float]", q: float) -> float:
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, int(round(q * (len(sorted_vals) - 1))))
    return sorted_vals[idx]


def _latency_ms(seconds: "list[float]") -> dict:
    vals = sorted(seconds)
    return {
        "p50": round(_percentile(vals, 0.50) * 1e3, 3),
        "p90": round(_percentile(vals, 0.90) * 1e3, 3),
        "p99": round(_percentile(vals, 0.99) * 1e3, 3),
        "mean": round(sum(vals) / len(vals) * 1e3, 3) if vals else 0.0,
        "max": round(vals[-1] * 1e3, 3) if vals else 0.0,
    }


_METRIC_LINE = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$')


def parse_metrics(text: str) -> "dict[tuple, float]":
    """Prometheus exposition text -> ``{(name, ((label, value), ...)): v}``.

    Handles exactly what our exporter emits (no escaped commas inside
    label values for the families this script reads)."""
    out: "dict[tuple, float]" = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        m = _METRIC_LINE.match(line)
        if not m:
            continue
        name, label_blob, value = m.groups()
        labels = []
        if label_blob:
            for part in label_blob.split(","):
                k, _, v = part.partition("=")
                labels.append((k, v.strip('"')))
        try:
            out[(name, tuple(sorted(labels)))] = float(value)
        except ValueError:
            continue
    return out


def _metric_sum(metrics: "dict[tuple, float]", name: str, **match) -> float:
    total = 0.0
    for (n, labels), value in metrics.items():
        if n != name:
            continue
        label_map = dict(labels)
        if all(label_map.get(k) == v for k, v in match.items()):
            total += value
    return total


def scrape_cache_stats(host: str, port: int) -> dict:
    """Server-side cache/evaluation counters from ``/metrics``."""
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request("GET", "/metrics")
        resp = conn.getresponse()
        text = resp.read().decode()
    finally:
        conn.close()
    metrics = parse_metrics(text)
    hits = _metric_sum(metrics, "serve_cache_lookups_total",
                       tier="lru", result="hit")
    misses = _metric_sum(metrics, "serve_cache_lookups_total",
                         tier="lru", result="miss")
    lookups = hits + misses
    evals = {}
    for (name, labels), value in metrics.items():
        if name == "serve_evaluations_total":
            evals[dict(labels).get("kind", "?")] = int(value)
    return {
        "lru_hits": int(hits),
        "lru_misses": int(misses),
        "lru_hit_rate": round(hits / lookups, 4) if lookups else None,
        "evaluations": evals,
        "requests_seen": int(_metric_sum(metrics, "serve_requests_total")),
    }


def fetch_healthz(host: str, port: int) -> dict:
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request("GET", "/healthz")
        resp = conn.getresponse()
        return json.loads(resp.read().decode())
    finally:
        conn.close()


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def spawn_server(cache_size: int = 4096) -> "tuple[subprocess.Popen, int]":
    """Boot ``python -m repro serve`` on a free port; wait for /healthz."""
    port = _free_port()
    env = {**os.environ, "PYTHONPATH": str(SRC), "REPRO_OBS": "1"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--host", "127.0.0.1", "--port", str(port),
         "--cache-size", str(cache_size)],
        cwd=REPO, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.perf_counter() + 30
    while time.perf_counter() < deadline:
        if proc.poll() is not None:
            raise SystemExit(f"spawned server exited early "
                             f"(code {proc.returncode})")
        try:
            if fetch_healthz("127.0.0.1", port).get("status") == "ok":
                return proc, port
        except OSError:
            time.sleep(0.05)
    proc.terminate()
    raise SystemExit("spawned server not healthy within 30s")


def run_load(host: str, port: int, mode: str, duration: float,
             connections: int, rate: float, profile: str,
             keyspace: int, seed: int) -> dict:
    """Drive the server and return the measured report dict."""
    per_worker: "list[list]" = [[] for _ in range(connections)]
    start = time.perf_counter()
    deadline = start + duration
    threads = []
    for i in range(connections):
        factory = RequestFactory(profile, keyspace, seed + i)
        if mode == "closed":
            target, args = closed_loop_worker, (
                host, port, factory, deadline, per_worker[i])
        else:
            target, args = open_loop_worker, (
                host, port, factory, start, rate, connections, i,
                deadline, per_worker[i])
        t = threading.Thread(target=target, args=args,
                             name=f"loadgen-{i}", daemon=True)
        t.start()
        threads.append(t)
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start

    samples = [s for worker in per_worker for s in worker]
    errors = sum(1 for _, _, ok in samples if not ok)
    by_endpoint: "dict[str, list[float]]" = {}
    endpoint_errors: "dict[str, int]" = {}
    for endpoint, dt, ok in samples:
        by_endpoint.setdefault(endpoint, []).append(dt)
        if not ok:
            endpoint_errors[endpoint] = endpoint_errors.get(endpoint, 0) + 1

    report = {
        "schema": 1,
        "mode": mode,
        "profile": profile,
        "keyspace": keyspace,
        "duration_seconds": round(elapsed, 3),
        "connections": connections,
        "target_rate": rate if mode == "open" else None,
        "requests": len(samples),
        "errors": errors,
        "qps": round(len(samples) / elapsed, 1) if elapsed else 0.0,
        "latency_ms": _latency_ms([dt for _, dt, _ in samples]),
        "per_endpoint": {
            name: {
                "requests": len(vals),
                "errors": endpoint_errors.get(name, 0),
                **_latency_ms(vals),
            }
            for name, vals in sorted(by_endpoint.items())
        },
    }
    report["cache"] = scrape_cache_stats(host, port)
    report["server"] = fetch_healthz(host, port)
    return report


def check_report(report: dict) -> "list[str]":
    """CI smoke assertions; returns failure strings (empty = pass)."""
    failures = []
    if report["requests"] == 0:
        failures.append("no requests completed")
    if report["errors"]:
        failures.append(f"{report['errors']} request(s) failed")
    if report["server"].get("status") != "ok":
        failures.append("healthz status is not ok")
    cache = report["cache"]
    if not cache.get("requests_seen"):
        failures.append("serve_requests_total is zero: obs counters dead")
    if cache.get("lru_hits", 0) + cache.get("lru_misses", 0) == 0:
        failures.append("cache tier counters are zero")
    return failures


def check_against(report: dict, baseline: "dict | None",
                  threshold: float = 0.5) -> "list[str]":
    """QPS regression gate vs a committed baseline (generous threshold:
    CI machines vary far more than the benchmark machines do)."""
    if baseline is None:
        return []
    old, new = baseline.get("qps"), report.get("qps")
    if not (old and new):
        return []
    drop = 1.0 - new / old
    if drop > threshold:
        return [f"serve QPS {new:,.0f} vs baseline {old:,.0f} (-{drop:.0%})"]
    print(f"  serve regression gate: pass ({new:,.0f} vs {old:,.0f} qps)")
    return []


def main(argv: "list[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--port", type=int, default=8177)
    ap.add_argument("--spawn", action="store_true",
                    help="boot `python -m repro serve` on a free port")
    ap.add_argument("--mode", choices=("closed", "open"), default="closed")
    ap.add_argument("--duration", type=float, default=10.0,
                    help="seconds of load (default 10)")
    ap.add_argument("--connections", type=int, default=8,
                    help="worker threads / persistent connections")
    ap.add_argument("--rate", type=float, default=200.0,
                    help="open-loop arrivals per second")
    ap.add_argument("--profile", choices=sorted(PROFILES), default="mixed")
    ap.add_argument("--keyspace", type=int, default=64,
                    help="distinct point-query parameter tuples")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--cache-size", type=int, default=4096,
                    help="LRU entries for a --spawn'd server")
    ap.add_argument("--output", default=str(REPO / "BENCH_serve.json"))
    ap.add_argument("--check", action="store_true",
                    help="CI smoke gate: fail on errors or dead counters")
    ap.add_argument("--check-against", metavar="BASELINE",
                    help="fail on >50%% QPS regression vs this BENCH json")
    args = ap.parse_args(argv)

    baseline = None
    if args.check_against:
        baseline_path = Path(args.check_against)
        if baseline_path.exists():
            # read before the run: --output may point at the same file
            baseline = json.loads(baseline_path.read_text())
        else:
            print(f"note: baseline {baseline_path} not found; gate skipped")

    proc = None
    host, port = args.host, args.port
    try:
        if args.spawn:
            proc, port = spawn_server(args.cache_size)
            host = "127.0.0.1"
            print(f"spawned server on http://{host}:{port}")
        report = run_load(host, port, args.mode, args.duration,
                          args.connections, args.rate, args.profile,
                          args.keyspace, args.seed)
    finally:
        if proc is not None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()

    out = Path(args.output)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    lat = report["latency_ms"]
    cache = report["cache"]
    hit = cache["lru_hit_rate"]
    print(f"wrote {out}")
    print(f"  {report['mode']}-loop {report['profile']}: "
          f"{report['requests']} requests in {report['duration_seconds']}s "
          f"({report['qps']:,} qps, {report['errors']} errors)")
    print(f"  latency p50 {lat['p50']}ms  p90 {lat['p90']}ms  "
          f"p99 {lat['p99']}ms  max {lat['max']}ms")
    print(f"  lru hit rate {f'{hit:.1%}' if hit is not None else 'n/a'}")

    failures = []
    if args.check:
        failures += check_report(report)
    if args.check_against:
        failures += check_against(report, baseline)
    for f in failures:
        print(f"FAIL: {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
