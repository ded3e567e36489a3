"""The traced pass: per-layer attribution without touching ``src/``.

:class:`Tracer` wraps each layer's public functions *from the
benchmark's side*.  A module-level function is patched in its defining
module and in every ``repro.*`` module that imported it by name (the
experiment drivers import ``resolve_units``, ``simsweep`` imports
``program_from_execution``, the serial pool imports ``execute``), so
the attribute each call site actually looks up is the traced one.
Wrappers use ``functools.wraps``, so a ``model-eval-grid`` unit key
built from a wrapped function keeps its ``module:qualname`` and does
not change.

Spans record name, layer, start, end and parent (the parent travels in
a ``contextvars`` variable, so it follows asyncio tasks and
``asyncio.to_thread``) and stay in memory until the pass ends.  Then
they are written as Chrome trace-event JSON, which Perfetto and
``chrome://tracing`` open, and folded into a per-layer table of count,
busy time and self time.  A span's self time is its duration minus the
part of it that its child spans cover.

:func:`traced_pass` runs one small repetition of every workload in this
process — runall cold then warm through ``repro.cli.main``, simx-merge
programs through ``Machine.run``, and both serve profiles through
``BackgroundServer(ServeApp())`` driven by the same open-loop generator
— so every per-layer metric is measured on every traced run, whatever
``--workload`` says.  The pass must pass the same output checks as the
untraced runs.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import functools
import importlib
import inspect
import io
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import wl_runall
import wl_serve
import wl_simx
from bench_common import child_env, cleanup, percentile, scratch_dir

#: module-level functions: (defining module, name, span name, layer);
#: a span name of None means one name per work-unit kind
FUNCTIONS = (
    ("repro.workloads.tracegen", "program_from_execution", "workloads.tracegen",
     "workloads"),
    ("repro.engine.scheduler", "precompute", "engine.precompute", "engine"),
    ("repro.engine.units", "execute", None, "engine"),
    ("repro.pipeline.runtime", "resolve_units", "pipeline.resolve", "pipeline"),
    ("repro.experiments.store", "save_report", "experiments.save", "experiments"),
    ("repro.noc.routing", "path_link_loads", "noc.path_link_loads", "noc"),
    ("repro.serve.handlers", "json_response", "serve.encode", "serve"),
    ("repro.serve.queries", "eval_point_batch", "core.kernel", "core"),
    ("repro.serve.queries", "eval_sweep", "core.kernel", "core"),
    ("repro.serve.queries", "search_optimal", "core.kernel", "core"),
)
#: methods: (module, class, method, span name, layer); subclasses that
#: override the method are patched too
METHODS = (
    ("repro.simx.machine", "Machine", "run", "simx.run", "simx"),
    ("repro.workloads.base", "ClusteringWorkloadBase", "execute", "workloads.execute",
     "workloads"),
    ("repro.pipeline.spec", "ExperimentSpec", "declare_units", "pipeline.declare",
     "pipeline"),
    ("repro.pipeline.spec", "ExperimentSpec", "run", "experiments.assemble",
     "experiments"),
    ("repro.experiments.store", "SweepStore", "get", "store.get", "experiments"),
    ("repro.experiments.store", "SweepStore", "put", "store.put", "experiments"),
    ("repro.experiments.report", "ExperimentReport", "render", "experiments.render",
     "experiments"),
    ("repro.noc.topology", "Topology", "average_hops", "noc.average_hops", "noc"),
    ("repro.serve.handlers", "ServeApp", "handle", "serve.handle", "serve"),
    ("repro.serve.lru", "LRUCache", "get", "serve.lru", "serve"),
    ("repro.serve.lru", "LRUCache", "put", "serve.lru", "serve"),
    ("repro.serve.batcher", "MicroBatcher", "submit", "serve.batcher", "serve"),
)
#: imported before patching so every by-name alias already exists
_PRELOAD = ("repro.cli", "repro.serve.server", "repro.serve.batcher",
            "repro.engine.executors", "repro.hardware.executor")

#: unit kinds runall executes with default options (``hardware-process``
#: runs only with fig2's ``hardware_backend="process"``)
ENGINE_KINDS = ("sweep-point", "sim-program", "hardware-model", "model-eval-grid")
SERVE_PROFILES = {"serve-miss": "miss", "serve-hit": "hit"}


def _track() -> int:
    """The span's timeline: its asyncio task, else its thread."""
    try:
        task = asyncio.current_task()
    except RuntimeError:
        task = None
    return id(task) if task is not None else threading.get_ident()


def _resolve(module: str, attr: str):
    """``module.attr``, or None once a refactor has removed it: the traced
    pass then skips that entry point instead of failing."""
    try:
        return getattr(importlib.import_module(module), attr)
    except (ImportError, AttributeError):
        return None


def _subclasses(cls) -> list:
    seen, todo = [cls], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return seen


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        #: (id, parent id, name, layer, start, end, track, subpass)
        self.spans: "list[tuple]" = []
        self.subpass = ""
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "bench_span", default=None)
        self._ids = itertools.count(1)
        self._patches: "list[tuple[object, str, object]]" = []
        self._after: "dict[str, list]" = defaultdict(list)
        #: entry points this checkout no longer has
        self.missing: "list[str]" = []

    def on_return(self, name: str, fn) -> None:
        """Call ``fn(args, result)`` after every span named ``name``."""
        self._after[name].append(fn)

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """Record one span around a block of the benchmark's own code."""
        sid, parent = next(self._ids), self._current.get()
        token = self._current.set(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._current.reset(token)
            self.spans.append((sid, parent, name, layer, t0, t1, _track(), self.subpass))

    def wrap(self, fn, name, layer):
        """A traced stand-in for ``fn``; ``name`` may be a function of the
        call's positional arguments."""
        span, after = self.span, self._after
        naming = name if callable(name) else (lambda args: name)

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced(*args, **kwargs):
                label = naming(args)
                with span(label, layer):
                    result = await fn(*args, **kwargs)
                for hook in after.get(label, ()):
                    hook(args, result)
                return result
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                label = naming(args)
                with span(label, layer):
                    result = fn(*args, **kwargs)
                for hook in after.get(label, ()):
                    hook(args, result)
                return result
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every entry point in :data:`FUNCTIONS` and :data:`METHODS`."""
        for module in _PRELOAD:
            with contextlib.suppress(ImportError):
                importlib.import_module(module)
        repro_modules = [m for n, m in list(sys.modules.items())
                         if n == "repro" or n.startswith("repro.")]
        for module, attr, name, layer in FUNCTIONS:
            original = _resolve(module, attr)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            if name is None:
                name = lambda args: f"engine.execute.{args[0]}"  # noqa: E731
            traced = self.wrap(original, name, layer)
            for mod in repro_modules:
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, alias, traced)
        for module, cls_name, attr, name, layer in METHODS:
            base = _resolve(module, cls_name)
            if base is None:
                self.missing.append(f"{module}.{cls_name}")
                continue
            for cls in _subclasses(base):
                fn = vars(cls).get(attr)
                if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                    self._set(cls, attr, self.wrap(fn, name, layer))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def per_span_cost(self, n: int = 20000) -> float:
        """Seconds one recorded span adds to a call, measured here."""
        def noop():
            return None

        traced = self.wrap(noop, "calibrate", "calibrate")
        before = len(self.spans)
        t0 = time.perf_counter()
        for _ in range(n):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(n):
            traced()
        wrapped = time.perf_counter() - t0
        del self.spans[before:]
        return max(0.0, (wrapped - bare) / n)


# ── aggregation and export ────────────────────────────────────────────────


def aggregate(spans: "list[tuple]") -> "dict[str, dict]":
    """Fold spans into ``{subpass: {"names": {...}, "layers": {...}}}``.

    Busy time sums the spans not nested in a span of the same name (or
    layer), so recursion and overrides calling ``super()`` count once;
    self time subtracts the part of each span its children cover.
    """
    by_id = {s[0]: s for s in spans}
    child_time: "dict[int, float]" = defaultdict(float)
    for _, parent, _, _, t0, t1, _, _ in spans:
        p = by_id.get(parent)
        if p is not None:
            child_time[parent] += max(0.0, min(t1, p[5]) - max(t0, p[4]))

    def nested_in_same(span, index: int) -> bool:
        p = by_id.get(span[1])
        while p is not None:
            if p[index] == span[index]:
                return True
            p = by_id.get(p[1])
        return False

    out: "dict[str, dict]" = {}
    for s in spans:
        sid, _, _, _, t0, t1, _, sub = s
        rows = out.setdefault(sub, {"names": {}, "layers": {}})
        for kind, index in (("names", 2), ("layers", 3)):
            row = rows[kind].setdefault(s[index], {"count": 0, "busy_s": 0.0,
                                                   "self_s": 0.0})
            row["count"] += 1
            row["self_s"] += max(0.0, t1 - t0 - child_time.get(sid, 0.0))
            if not nested_in_same(s, index):
                row["busy_s"] += t1 - t0
    return out


def write_chrome_trace(spans: "list[tuple]", path: Path) -> None:
    """Chrome trace-event JSON: one complete ("X") event per span, one
    track per thread or asyncio task."""
    base = min((s[4] for s in spans), default=0.0)
    tracks: "dict[int, int]" = {}
    events = [{"name": "process_name", "ph": "M", "pid": 1,
               "args": {"name": "repro end-to-end benchmark (traced pass)"}}]
    for sid, parent, name, layer, t0, t1, track, sub in spans:
        events.append({"name": name, "cat": layer, "ph": "X", "pid": 1,
                       "tid": tracks.setdefault(track, len(tracks) + 1),
                       "ts": (t0 - base) * 1e6, "dur": (t1 - t0) * 1e6,
                       "args": {"subpass": sub, "span": sid, "parent": parent}})
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def print_table(agg: dict, walls: "dict[str, float]") -> None:
    """Per subpass: each layer's span count, busy and self seconds."""
    for sub, rows in agg.items():
        wall = walls.get(sub)
        self_sum = sum(r["self_s"] for r in rows["layers"].values())
        extra = f"  wall {wall:.3f}s, self times sum to {self_sum / wall:.1%} of it" \
            if wall else ""
        print(f"[{sub}]{extra}")
        print(f"    {'layer':<12} {'spans':>7} {'busy s':>9} {'self s':>9}")
        for layer, r in sorted(rows["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"    {layer:<12} {r['count']:>7} {r['busy_s']:>9.4f} {r['self_s']:>9.4f}")


# ── the traced pass ───────────────────────────────────────────────────────


class _Counters:
    """Values the return hooks collect while the pass runs."""

    def __init__(self):
        self.engines: "dict[str, int]" = defaultdict(int)
        self.ops = 0
        self.fused = 0
        self.store_hits = 0
        self.declared = None

    def sim_run(self, args, result) -> None:
        self.engines[result.engine] += 1
        self.ops += result.n_ops
        self.fused += getattr(result, "n_fused_ops", 0)

    def store_get(self, args, result) -> None:
        self.store_hits += result is not None

    def precompute(self, args, n_declared) -> None:
        if self.declared is None:  # the cold run's: the warm one declares the same
            stats = args[0].stats
            self.declared = (n_declared, stats["units"] - stats["deduped"])


def _tier_counts() -> "dict[str, int]":
    """Sweep-point and generic memo tier counters, summed."""
    counts = dict.fromkeys(("memory_hits", "disk_hits", "misses"), 0)
    for info in (_resolve("repro.experiments.simsweep", "cache_info"),
                 _resolve("repro.pipeline", "memo_info")):
        if info is not None:
            got = info()
            for k in counts:
                counts[k] += int(got.get(k, 0))
    return counts


def _reset_memos() -> None:
    """Drop the in-process memo tiers: a fresh process starts without them."""
    for clear, kwargs in ((_resolve("repro.experiments.simsweep", "clear_cache"),
                           {"memory_only": True}),
                          (_resolve("repro.pipeline", "clear_memo"), {})):
        if clear is not None:
            clear(**kwargs)


class _Pass:
    """State of one traced pass: checks, walls and collected numbers."""

    def __init__(self, seed: int, smoke: bool, expected: dict, tmp: Path):
        self.seed, self.smoke, self.expected, self.tmp = seed, smoke, expected, tmp
        self.tracer = Tracer()
        self.counters = _Counters()
        self.tracer.on_return("simx.run", self.counters.sim_run)
        self.tracer.on_return("store.get", self.counters.store_get)
        self.tracer.on_return("engine.precompute", self.counters.precompute)
        self.checker = wl_runall.Checker(
            expected.get("runall-smoke" if smoke else "runall", {}))
        self.attempted = 0
        self.failed = 0
        self.failures: "list[str]" = []
        self.unchecked: "set[str]" = set()
        self.walls: "dict[str, float]" = {}
        self.tiers: "dict[str, int]" = defaultdict(int)
        self.sim_totals: "dict[str, int]" = defaultdict(int)
        self.serve_stats: "dict[str, tuple]" = {}

    def fail(self, messages: "list[str]", count: int = 1) -> None:
        if messages:
            self.failed += count
            self.failures += messages

    def runall(self) -> None:
        """Cold then warm ``repro.cli.main`` invocations, in process."""
        import repro.cli

        args, ok_codes = ((wl_runall.SMOKE_ARGS, wl_runall.SMOKE_OK_CODES) if self.smoke
                          else (wl_runall.FULL_ARGS, (0,)))
        cold = None
        for label in ("runall-cold", "runall-warm"):
            _reset_memos()
            out_dir = self.tmp / label
            self.tracer.subpass = label
            t0 = time.perf_counter()
            # reports go to --json; the printed copies and log lines are dropped
            with self.tracer.span("cli.main", "cli"), \
                    contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = repro.cli.main([*args, "--json", str(out_dir)])
            self.walls[label] = time.perf_counter() - t0
            digests = wl_runall.report_digests(out_dir)
            self.checker.check(f"traced {label}", digests, code in ok_codes,
                               reference=cold)
            cold = cold or digests
            for k, v in _tier_counts().items():
                self.tiers[k] += v

    def simx(self) -> None:
        """The seed's first simx-merge programs on both configs."""
        from repro.simx import Machine

        self.tracer.subpass = "simx-merge"
        known = self.expected.get("simx-merge-smoke" if self.smoke else "simx-merge", {})
        t0 = time.perf_counter()
        for index in range(1 if self.smoke else 2):
            program = wl_simx.build_program(self.seed, index, self.smoke)
            want = wl_simx.expected_counts(program)
            for ic in wl_simx.CONFIGS:
                key = wl_simx.pair_key(self.seed, index, ic)
                result = Machine(wl_simx.machine_config(ic)).run(program)
                self.attempted += 1
                bad = wl_simx.invariant_failures(result, want)
                if key not in known:
                    self.unchecked.add(key)
                elif known[key] != wl_simx.digest(result):
                    bad.append("digest differs from expected.json")
                self.fail([f"traced simx {key}: {b}" for b in bad])
                for k, v in wl_simx.sim_counts(result).items():
                    self.sim_totals[k] += v
        self.walls["simx-merge"] = time.perf_counter() - t0

    def serve(self) -> None:
        """Both profiles against an in-process server, one window per rate."""
        from repro import obs
        from repro.serve import BackgroundServer, ServeApp

        window_s = wl_serve.SMOKE_WINDOW_S if self.smoke else 1.5
        obs.set_enabled(True)  # `repro serve` turns metrics on by default
        try:
            for workload, profile in SERVE_PROFILES.items():
                obs.reset()
                _reset_memos()
                self.tracer.subpass = workload
                t0 = time.perf_counter()
                with BackgroundServer(ServeApp()) as srv:
                    loadgen = wl_serve.OpenLoop("127.0.0.1", srv.port)
                    try:
                        windows = wl_serve.drive(
                            loadgen, workload, self.seed, len(wl_serve.TRACED_RATES),
                            window_s, wl_serve.TRACED_RATES)
                    finally:
                        loadgen.close()
                    counters = wl_serve.scrape("127.0.0.1", srv.port)
                self.walls[workload] = time.perf_counter() - t0
                attempted, failed, messages = wl_serve.load_checks(loadgen)
                self.attempted += attempted
                self.fail([f"traced {workload}: {m}" for m in messages], failed)
                self.serve_stats[profile] = (windows, counters)
        finally:
            obs.set_enabled(False)
            obs.reset()


def traced_pass(seed: int, smoke: bool, expected: dict, trace_out: Path) -> dict:
    tmp = scratch_dir("trace")
    saved_env, saved_cwd = dict(os.environ), os.getcwd()
    env = child_env(tmp)  # caches, run journals and TMPDIR in tmp
    os.environ.clear()
    os.environ.update(env)
    os.chdir(tmp)
    run = _Pass(seed, smoke, expected, tmp)
    span_cost = run.tracer.per_span_cost()
    t0 = time.perf_counter()
    try:
        run.tracer.install()
        run.runall()
        run.simx()
        run.serve()
    finally:
        run.tracer.uninstall()
        os.chdir(saved_cwd)
        os.environ.clear()
        os.environ.update(saved_env)
        cleanup(tmp)
    pass_wall = time.perf_counter() - t0
    run.fail(run.checker.failures, run.checker.failed)
    run.attempted += run.checker.attempted
    run.unchecked |= run.checker.unchecked

    spans = run.tracer.spans
    agg = aggregate(spans)
    write_chrome_trace(spans, trace_out)
    print_table(agg, run.walls)
    print(f"chrome trace: {trace_out} ({len(spans)} spans)")
    if run.tracer.missing:
        print(f"not traced (absent in this checkout): {', '.join(run.tracer.missing)}")
    metrics = per_layer_metrics(run, agg)
    metrics["trace.overhead_s"] = {"value": span_cost * len(spans), "unit": "s"}
    metrics["trace.wall_s"] = {"value": pass_wall, "unit": "s"}
    return {
        "metrics": metrics,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "unchecked": sorted(run.unchecked),
        "layers": agg,
        "walls": run.walls,
        "per_span_cost_s": span_cost,
    }


def per_layer_metrics(run: _Pass, agg: dict) -> dict:
    """The ``per_layer`` metrics of BENCHMARK.json from one traced pass."""
    m: dict = {}

    def put(name: str, value, unit: str) -> None:
        m[name] = {"value": float(value), "unit": unit}

    def span_total(key: str, field: str = "busy_s", subs=None, kind="names") -> float:
        return sum(rows[kind].get(key, {}).get(field, 0.0)
                   for sub, rows in agg.items() if subs is None or sub in subs)

    def layer_self(layer: str, subs=None) -> float:
        return span_total(layer, "self_s", subs, kind="layers")

    c = run.counters
    put("simx.run_s", span_total("simx.run"), "s")
    put("simx.self_s", layer_self("simx"), "s")
    for engine in ("fast", "batch", "reference"):
        put(f"simx.runs.{engine}", c.engines.get(engine, 0), "count")
    put("simx.ops", c.ops, "count")
    put("simx.ns_per_op", 1e9 * span_total("simx.run") / max(1, c.ops), "ns")
    put("simx.fused_share", c.fused / max(1, c.ops), "ratio")
    for k in ("sim_cycles", "merge_span_cycles", "merge_wait_cycles"):
        put(f"simx.{k}", run.sim_totals[k], "cycles")
    for k in ("invalidations", "cache_to_cache", "upgrades"):
        put(f"simx.{k}", run.sim_totals[k], "count")
    put("workloads.execute_s", span_total("workloads.execute"), "s")
    put("workloads.tracegen_s", span_total("workloads.tracegen"), "s")
    put("workloads.self_s", layer_self("workloads"), "s")
    put("engine.precompute_s", span_total("engine.precompute"), "s")
    for kind in ENGINE_KINDS:
        put(f"engine.execute_s.{kind}", span_total(f"engine.execute.{kind}"), "s")
        put(f"engine.executed.{kind}", span_total(f"engine.execute.{kind}", "count"),
            "count")
    put("engine.self_s", layer_self("engine"), "s")
    gets = span_total("store.get", "count")
    put("store.get_s", span_total("store.get"), "s")
    put("store.gets", gets, "count")
    put("store.hit_rate", c.store_hits / gets if gets else 0.0, "ratio")
    put("store.put_s", span_total("store.put"), "s")
    put("store.puts", span_total("store.put", "count"), "count")
    put("experiments.assemble_s", span_total("experiments.assemble"), "s")
    put("experiments.render_s", span_total("experiments.render"), "s")
    put("experiments.save_s", span_total("experiments.save"), "s")
    put("experiments.self_s", layer_self("experiments"), "s")
    put("pipeline.declare_s", span_total("pipeline.declare"), "s")
    put("pipeline.resolve_s", span_total("pipeline.resolve"), "s")
    declared, unique = c.declared or (0, 0)
    put("pipeline.units_declared", declared, "count")
    put("pipeline.units_unique", unique, "count")
    for k in ("memory_hits", "disk_hits", "misses"):
        put(f"pipeline.tier.{k}", run.tiers[k], "count")
    put("pipeline.memo_entries", run.serve_stats["miss"][1]["memo_entries"], "count")
    put("pipeline.self_s", layer_self("pipeline"), "s")
    put("noc.path_link_loads_s", span_total("noc.path_link_loads"), "s")
    put("noc.average_hops_s", span_total("noc.average_hops"), "s")
    put("noc.self_s", layer_self("noc"), "s")
    put("cli.self_s", layer_self("cli"), "s")
    for workload, profile in SERVE_PROFILES.items():
        windows, counters = run.serve_stats[profile]
        subs, p = (workload,), f"serve.{profile}"
        for w in windows:
            s = w.summary()
            put(f"{p}.p50_ms.r{int(w.rate)}", s["p50_ms"], "ms")
            put(f"{p}.p99_ms.r{int(w.rate)}", s["p99_ms"], "ms")
        put(f"{p}.lru.hit_rate", counters["lru_hit_rate"], "ratio")
        put(f"{p}.singleflight.coalesced", counters["coalesced"], "count")
        put(f"{p}.batcher.points_per_batch", counters["points_per_batch"], "ratio")
        put(f"{p}.evaluations", sum(counters["evaluations"].values()), "count")
        put(f"{p}.handle_s", span_total("serve.handle", subs=subs), "s")
        put(f"{p}.lru_s", span_total("serve.lru", subs=subs), "s")
        # self time of the batcher's submit span: the wait not spent in resolve
        put(f"{p}.batcher.wait_s", span_total("serve.batcher", "self_s", subs), "s")
        put(f"{p}.encode_s", span_total("serve.encode", subs=subs), "s")
        put(f"{p}.self_s", layer_self("serve", subs), "s")
        put(f"core.{profile}.kernel_s", span_total("core.kernel", subs=subs), "s")
        late = sorted(x for w in windows for x in w.late_ms)
        put(f"loadgen.{profile}.late_ms.p99", percentile(late, 0.99), "ms")
    put("trace.spans", len(run.tracer.spans), "count")
    put("trace.runall_cold_s", run.walls["runall-cold"], "s")
    return m
