#!/usr/bin/env python
"""Run the measurement experiments at the paper's full dataset scale.

The benchmark suite uses reduced datasets to keep CI fast; this script
reruns Table II and Fig 2 with ``scale=1.0`` — the actual Table IV
attribute values (kmeans/fuzzy: 17 695 x 9, C=8; hop: ~15k particles after
the generator's hop scaling) — and prints the resulting parameter tables.

A cold serial run takes about 2 s at the default mem_scale=2 and about
4 s with --mem-scale 1 (exact, undersampling-free memory traces) on a
2-vCPU host.

Both experiments run as one ``run_experiments`` batch in one
``repro.engine`` session, so their units are declared once and settled
together (Table II and Fig 2 share their entire sweep, which runs once);
``--parallel N`` executes the misses on N worker processes, and the
reports are byte-identical to a serial run.  See docs/engine.md.

``--listen HOST:PORT`` executes the sweeps on *remote* workers instead:
start ``repro worker --connect HOST:PORT`` on as many machines as you
like (see the "Distributed execution" section of docs/engine.md) — this
is the intended path for the full-scale design-space grid.

Run:  python scripts/run_full_scale.py [--threads 1,2,4,8,16] [--parallel 8]
"""

from __future__ import annotations

import argparse
import sys
import time

from repro import engine
from repro.experiments.registry import run_experiments


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--threads", default="1,2,4,8,16")
    parser.add_argument("--mem-scale", type=int, default=2)
    parser.add_argument("--parallel", type=int, default=None, metavar="N",
                        help="run the sweeps on N engine worker processes")
    parser.add_argument("--event-log", default=None, metavar="PATH",
                        help="append engine events as JSONL")
    parser.add_argument("--listen", default=None, metavar="HOST:PORT",
                        help="execute sweeps on remote 'repro worker' "
                             "processes instead of local ones")
    parser.add_argument("--worker-timeout", type=float, default=None,
                        metavar="S",
                        help="with --listen: serial fallback when no worker "
                             "connects within S seconds")
    args = parser.parse_args()
    threads = tuple(int(t) for t in args.threads.split(","))
    options = dict(scale=1.0, thread_counts=threads, mem_scale=args.mem_scale)

    with engine.session(args.parallel or 1, event_log=args.event_log,
                        listen=args.listen,
                        worker_timeout=args.worker_timeout) as sess:
        if sess.remote_address:
            print(f"[coordinator listening on {sess.remote_address}; "
                  f"join with: repro worker --connect "
                  f"{sess.remote_address}]", flush=True)
        ids = ("table2", "fig2")
        t0 = time.time()  # the first report's time includes the shared sweep
        for eid, report in zip(ids, run_experiments((eid, options) for eid in ids)):
            print(f"== {eid} at full scale ==", flush=True)
            print(report.render())
            status = "all claims hold" if report.all_match else "SOME CLAIMS FAILED"
            print(f"[{eid}: {status}; {time.time() - t0:.0f}s]\n", flush=True)
            t0 = time.time()
        print(f"[engine: {sess.summary()}]", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
