"""Endpoint logic for ``repro serve`` — parse, resolve, respond.

The HTTP framing lives in :mod:`repro.serve.server`; this module is the
application: a :class:`ServeApp` owning the serving cache tier
(:class:`~repro.serve.lru.LRUCache` + :class:`~repro.serve.lru
.SingleFlight`), the point-query :class:`~repro.serve.batcher
.MicroBatcher`, and one async handler per route.

Endpoints (see ``docs/serving.md`` for schemas):

=====================  ====================================================
``GET /healthz``        liveness + version + cache occupancy
``GET /metrics``        Prometheus text exposition of the obs registry
``GET /v1/experiments`` the experiment registry (id, description, options)
``POST /v1/eval``       one point query (Eqs 1–8) via the micro-batcher
``POST /v1/sweep``      power-of-two size sweeps for a list of points
``POST /v1/optimize``   optimal-(r, rl) design search
``GET /v1/report/<id>`` a paper table/figure report, byte-identical to
                        ``repro run <id>`` output
=====================  ====================================================

Every query answer flows LRU → single-flight → (batcher or thread) →
:func:`repro.pipeline.resolve_units` / :func:`~repro.experiments.registry
.run_experiment`, so the journal → memo → disk tiers keep working exactly
as they do for the CLI, and a warm server answers repeats without any
evaluation at all.
"""

from __future__ import annotations

import asyncio
import json
import time

from repro import obs
from repro.experiments.store import SweepStore
from repro.serve import queries
from repro.serve.batcher import MicroBatcher
from repro.serve.lru import LRUCache, SingleFlight

__all__ = ["ServeApp", "HttpError", "json_response"]

#: bounded-latency buckets suited to sub-millisecond cache hits
_LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

_REQUESTS = obs.counter(
    "serve_requests_total", "HTTP requests by endpoint and status",
    labels=("endpoint", "status"),
)
_LATENCY = obs.histogram(
    "serve_request_seconds", "request wall time by endpoint",
    labels=("endpoint",), buckets=_LATENCY_BUCKETS,
)
_CACHE = obs.counter(
    "serve_cache_lookups_total", "serving-tier cache lookups",
    labels=("tier", "result"),
)
_COALESCED = obs.counter(
    "serve_coalesced_total", "queries coalesced onto an in-flight identical one",
)
_EVALS = obs.counter(
    "serve_evaluations_total", "underlying evaluations by query kind",
    labels=("kind",),
)


class HttpError(Exception):
    """An error with a client-facing status code and message."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


def json_response(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode()


def _require_number(body: dict, name: str) -> float:
    value = body.get(name)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise HttpError(400, f"field {name!r} must be a number")
    return float(value)


def _opt_str(body: dict, name: str) -> "str | None":
    value = body.get(name)
    if value is not None and not isinstance(value, str):
        raise HttpError(400, f"field {name!r} must be a string")
    return value


def _opt_int(body: dict, name: str, default: int) -> int:
    value = body.get(name, default)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise HttpError(400, f"field {name!r} must be a positive integer")
    return value


def _points_of(body: dict) -> "list[dict]":
    pts = body.get("points")
    if not isinstance(pts, list) or not pts or not all(
            isinstance(p, dict) for p in pts):
        raise HttpError(400, "field 'points' must be a non-empty list of objects")
    return pts


class ServeApp:
    """The serving application: routes + the in-memory cache tier."""

    def __init__(self, cache_size: int = 4096):
        self.lru = LRUCache(cache_size)
        self.flight = SingleFlight()
        self.batcher = MicroBatcher()
        self.started_at = time.time()
        self.requests = 0

    # ── the cache frontend ────────────────────────────────────────────────

    async def cached(self, kind: str, description: dict, factory) -> dict:
        """LRU → single-flight → ``factory`` for one content-hashed query.

        ``description`` must canonically describe everything the response
        depends on; its hash is the cache identity (the same scheme as
        work-unit keys, :meth:`SweepStore.key_for`).
        """
        key = SweepStore.key_for(description)
        hit = self.lru.get(key)
        if hit is not None:
            _CACHE.inc(tier="lru", result="hit")
            return hit  # type: ignore[return-value]
        _CACHE.inc(tier="lru", result="miss")
        before = self.flight.coalesced

        async def compute():
            _EVALS.inc(kind=kind)
            return await factory()

        result = await self.flight.do(key, compute)
        if self.flight.coalesced > before:
            _COALESCED.inc(self.flight.coalesced - before)
        self.lru.put(key, result)
        return result  # type: ignore[return-value]

    # ── query endpoints ───────────────────────────────────────────────────

    async def eval_point(self, body: dict) -> dict:
        model = _opt_str(body, "model") or "merging-symmetric"
        spec = queries.MODELS.get(model)
        if spec is None:
            raise HttpError(
                400,
                f"unknown model {model!r}; known: {', '.join(sorted(queries.MODELS))}",
            )
        n = _opt_int(body, "n", 256)
        growth = _opt_str(body, "growth")
        perf = _opt_str(body, "perf")
        point = {name: _require_number(body, name) for name in spec["required"]}
        for name in spec["optional"]:
            point[name] = (_require_number(body, name)
                           if body.get(name) is not None else 1.0)
        group = (model, n, growth, perf)

        async def factory():
            try:
                speedup = await self.batcher.submit(group, point)
            except queries.QueryError as exc:
                raise HttpError(400, str(exc)) from None
            return {"model": model, "n": n, "growth": growth, "perf": perf,
                    **point, "speedup": speedup}

        return await self.cached(
            "point", {"endpoint": "eval", "group": list(group), "point": point},
            factory,
        )

    async def _resolve_grid(self, fn, kwargs: dict, label: str) -> dict:
        """One grid work unit through the pipeline tiers, off-loop."""
        from repro.pipeline import model_eval_grid_unit, resolve_units

        unit = model_eval_grid_unit(fn, kwargs, label=label)

        def run():
            try:
                return resolve_units([unit])[unit.key]
            except queries.QueryError as exc:
                raise HttpError(400, str(exc)) from None

        return await asyncio.to_thread(run)

    async def eval_sweep(self, body: dict) -> dict:
        model = _opt_str(body, "model") or "merging-symmetric"
        if model not in queries.MODELS:
            raise HttpError(
                400,
                f"unknown model {model!r}; known: {', '.join(sorted(queries.MODELS))}",
            )
        n = _opt_int(body, "n", 256)
        growth = _opt_str(body, "growth")
        perf = _opt_str(body, "perf")
        fields = queries._SWEEP_FIELDS[model]
        points = _points_of(body)
        kwargs: dict = {"model": model, "n": n, "growth": growth, "perf": perf}
        for name in fields:
            if name == "r":
                kwargs[name] = [float(p.get("r", 1.0)) for p in points]
            else:
                kwargs[name] = [_require_number(p, name) for p in points]

        async def factory():
            payload = await self._resolve_grid(
                queries.eval_sweep, kwargs, f"serve-sweep:{model}x{len(points)}")
            return {"model": model, "n": n, "growth": growth, "perf": perf,
                    "sizes": payload["sizes"], "speedup": payload["speedup"]}

        return await self.cached(
            "sweep", {"endpoint": "sweep", "kwargs": kwargs}, factory)

    async def optimize(self, body: dict) -> dict:
        points = _points_of(body)
        kwargs: dict = {
            "f": [_require_number(p, "f") for p in points],
            "fcon_share": [_require_number(p, "fcon_share") for p in points],
            "fored_share": [_require_number(p, "fored_share") for p in points],
            "n": _opt_int(body, "n", 256),
            "growth": _opt_str(body, "growth"),
            "perf": _opt_str(body, "perf"),
        }
        choices = body.get("r_choices")
        if choices is not None:
            if (not isinstance(choices, list) or not choices or not all(
                    isinstance(c, (int, float)) and not isinstance(c, bool)
                    for c in choices)):
                raise HttpError(400, "field 'r_choices' must be a list of numbers")
            kwargs["r_choices"] = [float(c) for c in choices]

        async def factory():
            payload = await self._resolve_grid(
                queries.search_optimal, kwargs,
                f"serve-optimize:x{len(points)}")
            return {"n": kwargs["n"], "growth": kwargs["growth"],
                    "perf": kwargs["perf"], **payload}

        return await self.cached(
            "optimize", {"endpoint": "optimize", "kwargs": kwargs}, factory)

    # ── report endpoints ──────────────────────────────────────────────────

    @staticmethod
    def _report_options(params: dict) -> dict:
        """Driver options from query parameters (CLI-flag shaped)."""
        options: dict = {}
        if "scale" in params:
            try:
                options["scale"] = float(params["scale"])
            except ValueError:
                raise HttpError(400, "query parameter 'scale' must be a number")
        if "threads" in params:
            try:
                options["thread_counts"] = tuple(
                    int(t) for t in params["threads"].split(",") if t)
            except ValueError:
                raise HttpError(400, "query parameter 'threads' must be a "
                                     "comma-separated list of integers")
        if "n" in params:
            try:
                options["n"] = int(params["n"])
            except ValueError:
                raise HttpError(400, "query parameter 'n' must be an integer")
        return options

    async def report(self, experiment_id: str, params: dict) -> dict:
        from repro.experiments.registry import (
            SPECS,
            filter_options,
            run_experiment,
        )
        from repro.experiments.store import report_to_dict

        if experiment_id not in SPECS:
            raise HttpError(404, f"unknown experiment {experiment_id!r}")
        options = filter_options(experiment_id, self._report_options(params))

        async def factory():
            def run():
                report = run_experiment(experiment_id, **options)
                return {"experiment_id": experiment_id,
                        "options": {k: list(v) if isinstance(v, tuple) else v
                                    for k, v in sorted(options.items())},
                        "render": report.render(),
                        "all_match": report.all_match,
                        "report": report_to_dict(report)}

            return await asyncio.to_thread(run)

        return await self.cached(
            "report",
            {"endpoint": "report", "experiment": experiment_id,
             "options": {k: list(v) if isinstance(v, tuple) else v
                         for k, v in sorted(options.items())}},
            factory,
        )

    # ── infrastructure endpoints ──────────────────────────────────────────

    def healthz(self) -> dict:
        from repro.cli import version_string

        return {
            "status": "ok",
            "version": version_string(),
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "requests": self.requests,
            "lru": self.lru.info(),
            "inflight": self.flight.inflight(),
            "batches": {"count": self.batcher.batches,
                        "points": self.batcher.points},
        }

    def metrics(self) -> str:
        """The Prometheus exposition, with the pipeline tiers' counters
        mirrored in as gauges so one scrape shows every cache tier."""
        from repro.pipeline import memo_info

        tiers = obs.gauge("serve_pipeline_tier", "pipeline cache-tier counters "
                          "as seen at scrape time", labels=("tier", "event"))
        for event, value in memo_info().items():
            if isinstance(value, (int, float)):  # not disk_path/journal_path
                tiers.set(float(value), tier="memo", event=event)
        return obs.render_prometheus()

    def experiments(self) -> list:
        from repro.experiments.registry import SPECS, describe_experiment
        from repro.pipeline import accepted_options

        entries = []
        for name in sorted(SPECS):
            accepted = accepted_options(SPECS[name].assemble)
            entries.append({
                "id": name,
                "description": describe_experiment(name),
                "options": sorted(accepted) if accepted is not None else None,
            })
        return entries

    # ── dispatch ──────────────────────────────────────────────────────────

    async def handle(self, method: str, path: str, params: dict,
                     body: bytes) -> "tuple[int, str, bytes]":
        """Route one request; returns ``(status, content_type, payload)``."""
        endpoint, t0 = "unknown", time.perf_counter()
        self.requests += 1
        try:
            if path == "/healthz" and method == "GET":
                endpoint = "healthz"
                return self._finish(endpoint, t0, 200, "application/json",
                                    json_response(self.healthz()))
            if path == "/metrics" and method == "GET":
                endpoint = "metrics"
                return self._finish(endpoint, t0, 200,
                                    "text/plain; version=0.0.4",
                                    self.metrics().encode())
            if path == "/v1/experiments" and method == "GET":
                endpoint = "experiments"
                return self._finish(endpoint, t0, 200, "application/json",
                                    json_response({"experiments": self.experiments()}))
            if path.startswith("/v1/report/") and method == "GET":
                endpoint = "report"
                payload = await self.report(path[len("/v1/report/"):], params)
                if params.get("format") == "text":
                    return self._finish(endpoint, t0, 200, "text/plain",
                                        (payload["render"] + "\n").encode())
                return self._finish(endpoint, t0, 200, "application/json",
                                    json_response(payload))
            if path in ("/v1/eval", "/v1/sweep", "/v1/optimize"):
                if method != "POST":
                    raise HttpError(405, f"{path} requires POST")
                endpoint = path.rsplit("/", 1)[-1]
                try:
                    parsed = json.loads(body.decode() or "{}")
                except (ValueError, UnicodeDecodeError):
                    raise HttpError(400, "request body must be valid JSON")
                if not isinstance(parsed, dict):
                    raise HttpError(400, "request body must be a JSON object")
                handler = {"eval": self.eval_point, "sweep": self.eval_sweep,
                           "optimize": self.optimize}[endpoint]
                payload = await handler(parsed)
                return self._finish(endpoint, t0, 200, "application/json",
                                    json_response(payload))
            raise HttpError(404, f"no route for {method} {path}")
        except HttpError as exc:
            return self._finish(endpoint, t0, exc.status, "application/json",
                                json_response({"error": exc.message}))
        except Exception as exc:  # noqa: BLE001 - a request must never kill the loop
            return self._finish(endpoint, t0, 500, "application/json",
                                json_response({"error": f"internal error: {exc}"}))

    def _finish(self, endpoint: str, t0: float, status: int,
                content_type: str, payload: bytes) -> "tuple[int, str, bytes]":
        _REQUESTS.inc(endpoint=endpoint, status=str(status))
        _LATENCY.observe(time.perf_counter() - t0, endpoint=endpoint)
        return status, content_type, payload
