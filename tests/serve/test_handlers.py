"""ServeApp endpoint logic: routing, validation, the LRU tier's
no-reevaluation guarantee and memory bound, and report byte-identity with
``repro run``."""

import asyncio
import json

import numpy as np
import pytest

from repro import engine, obs, pipeline
from repro.core import gridkernels
from repro.experiments.registry import run_experiment
from repro.serve import ServeApp, queries

_EVAL_BODY = {"model": "merging-symmetric", "f": 0.99, "fcon_share": 0.6,
              "fored_share": 0.8, "r": 32}
#: one in-range value per model parameter, for building any model's query
_PARAMS = {"f": 0.975, "fcon_share": 0.3, "fored_share": 0.5, "r": 4.0,
           "rl": 16.0, "p": 64.0}


def _request(app, method, path, params=None, body=b""):
    if isinstance(body, dict):
        body = json.dumps(body).encode()
    return asyncio.run(app.handle(method, path, params or {}, body))


def _metric_value(name, **labels):
    for fam in obs.snapshot():
        if fam["name"] != name:
            continue
        for s in fam["series"]:
            if all(s["labels"].get(k) == v for k, v in labels.items()):
                return s["value"]
    return 0.0


class TestRouting:
    def test_healthz(self):
        status, ctype, payload = _request(ServeApp(), "GET", "/healthz")
        assert status == 200 and ctype == "application/json"
        health = json.loads(payload)
        assert health["status"] == "ok"
        assert health["lru"]["maxsize"] == 4096

    def test_healthz_looks_the_version_up_once(self, monkeypatch):
        import importlib.metadata

        from repro.cli import version_string

        lookups = []
        real_version = importlib.metadata.version

        def counting(name):
            lookups.append(name)
            return real_version(name)

        monkeypatch.setattr(importlib.metadata, "version", counting)
        version_string.cache_clear()
        try:
            app = ServeApp()
            first = json.loads(_request(app, "GET", "/healthz")[2])
            second = json.loads(_request(app, "GET", "/healthz")[2])
        finally:
            version_string.cache_clear()
        assert lookups == ["repro"]
        assert first["version"] == second["version"]

    def test_unknown_route_is_404(self):
        status, _, payload = _request(ServeApp(), "GET", "/nope")
        assert status == 404
        assert "no route" in json.loads(payload)["error"]

    def test_eval_requires_post(self):
        status, _, _ = _request(ServeApp(), "GET", "/v1/eval")
        assert status == 405

    def test_bad_json_body_is_400(self):
        status, _, payload = _request(ServeApp(), "POST", "/v1/eval",
                                      body=b"{not json")
        assert status == 400
        assert "valid JSON" in json.loads(payload)["error"]

    def test_unknown_model_is_400(self):
        status, _, payload = _request(
            ServeApp(), "POST", "/v1/eval", body={"model": "nope", "f": 0.9})
        assert status == 400
        assert "unknown model" in json.loads(payload)["error"]

    def test_missing_field_is_400(self):
        status, _, payload = _request(
            ServeApp(), "POST", "/v1/eval",
            body={"model": "merging-symmetric", "f": 0.99})
        assert status == 400
        assert "fcon_share" in json.loads(payload)["error"]

    @pytest.mark.parametrize("path,body", [
        ("/v1/eval", {**_EVAL_BODY, "f": 1.5}),
        ("/v1/sweep", {"model": "merging-symmetric",
                       "points": [{"f": 1.5, "fcon_share": 0.6,
                                   "fored_share": 0.8}]}),
        ("/v1/optimize", {"points": [{"f": 1.5, "fcon_share": 0.6,
                                      "fored_share": 0.8}]}),
    ], ids=["eval", "sweep", "optimize"])
    def test_out_of_range_parameter_is_400(self, path, body):
        """A kernel range check is the client's error, not the server's."""
        status, _, payload = _request(ServeApp(), "POST", path, body=body)
        assert status == 400
        assert "error" in json.loads(payload)

    @pytest.mark.parametrize("path,body", [
        ("/v1/eval", b'{"model": "merging-symmetric", "f": NaN, '
                     b'"fcon_share": 0.6, "fored_share": 0.8, "r": 32}'),
        ("/v1/eval", b'{"model": "amdahl", "f": 0.9, "p": Infinity}'),
        ("/v1/sweep", b'{"model": "merging-symmetric", "points": [{"f": 0.9, '
                      b'"fcon_share": -Infinity, "fored_share": 0.8}]}'),
        ("/v1/optimize", b'{"points": [{"f": 0.9, "fcon_share": 0.6, '
                         b'"fored_share": NaN}]}'),
        ("/v1/optimize", b'{"points": [{"f": 0.9, "fcon_share": 0.6, '
                         b'"fored_share": 0.8}], "r_choices": [1, Infinity]}'),
    ], ids=["eval-nan", "eval-inf", "sweep", "optimize", "r_choices"])
    def test_non_finite_number_is_400(self, path, body):
        """``NaN`` and ``Infinity`` parse as JSON numbers but have no
        valid JSON answer: the request is the client's error."""
        status, _, payload = _request(ServeApp(), "POST", path, body=body)
        assert status == 400
        assert "finite" in json.loads(payload)["error"]

    @pytest.mark.parametrize("experiment,params", [
        ("table2", {"scale": "0"}),
        ("table2", {"scale": "nan"}),
        ("table2", {"threads": ""}),
        ("table2", {"threads": "0"}),
        ("table2", {"threads": "2,-1"}),
        ("fig4", {"n": "0"}),
    ], ids=["scale-0", "scale-nan", "threads-empty", "threads-0",
            "threads-negative", "n-0"])
    def test_bad_report_option_is_400(self, experiment, params):
        status, _, payload = _request(
            ServeApp(), "GET", f"/v1/report/{experiment}", params=params)
        assert status == 400
        assert "query parameter" in json.loads(payload)["error"]

    def test_unknown_report_is_404(self):
        status, _, _ = _request(ServeApp(), "GET", "/v1/report/nope")
        assert status == 404

    def test_experiments_lists_registry(self):
        status, _, payload = _request(ServeApp(), "GET", "/v1/experiments")
        assert status == 200
        ids = [e["id"] for e in json.loads(payload)["experiments"]]
        assert "fig4" in ids and "table2" in ids


class TestEval:
    def test_point_matches_direct_kernel(self):
        status, _, payload = _request(ServeApp(), "POST", "/v1/eval",
                                      body=_EVAL_BODY)
        assert status == 200
        direct = gridkernels.merging_symmetric(
            np.array([0.99]), np.array([0.6]), np.array([0.8]), 256,
            np.array([32.0]))[0]
        assert json.loads(payload)["speedup"] == float(direct)

    @pytest.mark.parametrize("model", sorted(queries.MODELS))
    def test_every_model_matches_one_point_batch(self, model):
        """The served answer is exactly the one-point kernel evaluation."""
        spec = queries.MODELS[model]
        body = {"model": model,
                **{name: _PARAMS[name] for name in spec["required"]}}
        status, _, payload = _request(ServeApp(), "POST", "/v1/eval",
                                      body=body)
        assert status == 200
        point = {name: [body.get(name, 1.0)]
                 for name in (*spec["required"], *spec["optional"])}
        direct = queries.eval_point_batch(model, 256, None, None, **point)
        assert json.loads(payload)["speedup"] == float(direct["speedup"][0])

    def test_sweep_curve_matches_direct_kernel(self):
        body = {"model": "hm-symmetric", "n": 64,
                "points": [{"f": 0.975}]}
        status, _, payload = _request(ServeApp(), "POST", "/v1/sweep",
                                      body=body)
        assert status == 200
        result = json.loads(payload)
        from repro.core.merging import power_of_two_sizes

        sizes = power_of_two_sizes(64)
        direct = gridkernels.hm_symmetric(
            np.array([[0.975]]), 64, sizes[None, :], None)
        assert result["sizes"] == [float(s) for s in sizes]
        assert result["speedup"] == [[float(v) for v in direct[0]]]

    def test_optimize_matches_best_search(self):
        from repro.core.merging import best_asymmetric, best_symmetric
        from repro.core.params import AppParams

        body = {"points": [{"f": 0.99, "fcon_share": 0.6,
                            "fored_share": 0.8}]}
        status, _, payload = _request(ServeApp(), "POST", "/v1/optimize",
                                      body=body)
        assert status == 200
        result = json.loads(payload)
        params = AppParams(f=0.99, fcon_share=0.6, fored_share=0.8)
        sym = best_symmetric(params, 256)
        asym = best_asymmetric(params, 256)
        assert result["symmetric"]["r"] == [sym.r]
        assert result["symmetric"]["speedup"] == [sym.speedup]
        assert result["asymmetric"]["rl"] == [asym.rl]
        assert result["asymmetric"]["speedup"] == [asym.speedup]


class TestCacheTier:
    def test_repeat_query_is_lru_hit_with_no_new_evaluation(self):
        """The acceptance criterion: a repeated identical query is served
        from the in-memory tier — hit counter up, evaluations flat."""
        obs.set_enabled(True)
        app = ServeApp()
        status, _, first = _request(app, "POST", "/v1/eval", body=_EVAL_BODY)
        assert status == 200
        assert _metric_value("serve_evaluations_total", kind="point") == 1
        hits_before = app.lru.hits

        status, _, second = _request(app, "POST", "/v1/eval",
                                     body=dict(_EVAL_BODY))
        assert status == 200
        assert second == first  # byte-identical response
        assert app.lru.hits == hits_before + 1
        assert _metric_value("serve_evaluations_total", kind="point") == 1
        assert _metric_value("serve_cache_lookups_total",
                             tier="lru", result="hit") == 1

    def test_concurrent_identical_queries_evaluate_once(self):
        """N identical concurrent point queries evaluate once: the first
        evaluates and caches with no await in between, the rest hit."""
        obs.set_enabled(True)
        app = ServeApp()

        async def scenario():
            return await asyncio.gather(*[
                app.eval_point(dict(_EVAL_BODY)) for _ in range(8)])

        results = asyncio.run(scenario())
        assert all(r == results[0] for r in results)
        assert _metric_value("serve_evaluations_total", kind="point") == 1
        assert app.lru.hits == 7
        assert _metric_value("serve_cache_lookups_total",
                             tier="lru", result="hit") == 7

    def test_model_queries_stay_within_the_lru_bound(self):
        """Distinct eval/sweep/optimize misses land in the LRU alone: they
        look up and store no pipeline unit, so --cache-size bounds their
        memory."""
        app = ServeApp(cache_size=8)
        disk = pipeline.get_disk_store()
        entries = len(disk) if disk is not None else 0
        with engine.session(1) as sess:
            for i in range(12):
                f = 0.9 + i / 1000
                for path, body in (
                        ("/v1/eval", {**_EVAL_BODY, "f": f}),
                        ("/v1/sweep", {"model": "hm-symmetric",
                                       "points": [{"f": f}]}),
                        ("/v1/optimize", {"points": [{"f": f, "fcon_share": 0.6,
                                                      "fored_share": 0.8}]})):
                    status, _, _ = _request(app, "POST", path, body=body)
                    assert status == 200
        assert sess.stats["units"] == 0  # no unit declared, none settled
        assert (len(disk) if disk is not None else 0) == entries
        assert len(app.lru) <= 8

    def test_cache_size_zero_disables_the_tier(self):
        app = ServeApp(cache_size=0)
        _request(app, "POST", "/v1/eval", body=_EVAL_BODY)
        _request(app, "POST", "/v1/eval", body=_EVAL_BODY)
        assert app.lru.hits == 0 and len(app.lru) == 0


class TestReports:
    def test_fig4_render_byte_identical_to_run_experiment(self):
        status, _, payload = _request(ServeApp(), "GET", "/v1/report/fig4")
        assert status == 200
        served = json.loads(payload)
        direct = run_experiment("fig4")
        assert served["render"] == direct.render()
        assert served["all_match"] == direct.all_match

    def test_text_format_returns_the_render_verbatim(self):
        status, ctype, payload = _request(
            ServeApp(), "GET", "/v1/report/fig4", params={"format": "text"})
        assert status == 200 and ctype == "text/plain"
        assert payload.decode() == run_experiment("fig4").render() + "\n"

    def test_table2_with_options_byte_identical(self):
        params = {"scale": "0.03", "threads": "1,2"}
        status, _, payload = _request(
            ServeApp(), "GET", "/v1/report/table2", params=params)
        assert status == 200
        direct = run_experiment("table2", scale=0.03, thread_counts=(1, 2))
        assert json.loads(payload)["render"] == direct.render()

    def test_repeat_report_is_cached(self):
        app = ServeApp()
        _request(app, "GET", "/v1/report/fig4")
        hits = app.lru.hits
        _request(app, "GET", "/v1/report/fig4")
        assert app.lru.hits == hits + 1


class TestMetricsEndpoint:
    def test_metrics_exposition_has_serve_families(self):
        obs.set_enabled(True)
        app = ServeApp()
        _request(app, "POST", "/v1/eval", body=_EVAL_BODY)
        status, ctype, payload = _request(app, "GET", "/metrics")
        assert status == 200
        assert ctype.startswith("text/plain")
        text = payload.decode()
        assert "serve_requests_total" in text
        assert "serve_cache_lookups_total" in text
        # a report's unit settlements show as engine events: executed on
        # a cold disk tier, read from it on a warm one
        _request(app, "GET", "/v1/report/table2",
                 params={"scale": "0.03", "threads": "1,2"})
        text = _request(app, "GET", "/metrics")[2].decode()
        assert any(f'engine_events_total{{kind="{kind}"}}' in text
                   for kind in ("unit_done", "cache_hit"))
