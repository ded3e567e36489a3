"""``repro.serve`` — the speedup model as an async query service.

The ROADMAP's serving item, realised: a stdlib-only asyncio HTTP/JSON
server that answers Eq 1–8 model queries at high QPS from the vectorized
:mod:`repro.core.gridkernels`, and paper reports through the same
execution substrate every experiment uses (``repro.pipeline``'s
journal → memo → disk tiers):

* :mod:`repro.serve.lru` — the bounded response LRU, the server's only
  cache for model queries (``--cache-size`` bounds their memory);
* :mod:`repro.serve.queries` — the module-level evaluators a query runs
  on an LRU miss (points, size sweeps, optimal-(r, rl) search);
* :mod:`repro.serve.handlers` — endpoint logic and obs instrumentation
  (request counters, latency histograms, LRU hit/miss counters);
* :mod:`repro.serve.server` — minimal HTTP/1.1 framing with keep-alive.

Start it with ``repro-merging serve``; benchmark it with
``scripts/run_loadgen.py`` (emits ``BENCH_serve.json``).  See
``docs/serving.md`` for the endpoint and schema reference.
"""

from repro.serve.handlers import ServeApp
from repro.serve.lru import LRUCache
from repro.serve.server import BackgroundServer, run, serve_forever

__all__ = [
    "BackgroundServer",
    "LRUCache",
    "ServeApp",
    "run",
    "serve_forever",
]
