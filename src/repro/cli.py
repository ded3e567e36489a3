"""Command-line interface: ``repro-merging`` / ``python -m repro``.

Subcommands
-----------
``list [--json]``
    Show the available experiments with one-line descriptions; ``--json``
    emits a machine-readable listing (id, description, accepted options,
    whether the experiment declares precomputable work units).
``run <id> [--csv] [--scale S] [--parallel N] [--run-id ID | --resume ID]``
    Run one experiment (or ``all``) and print its report.  Every run
    opens one :mod:`repro.engine` session, which settles the units the
    selected experiments declare in one batch on ``--parallel`` N worker
    processes (default 1); reports are byte-identical whatever the width.
    ``--run-id`` journals every settled unit so a killed run can be
    picked up with ``--resume ID`` (which also restores the experiment
    and options from the run's manifest); SIGINT/SIGTERM drains
    gracefully and exits 130 with a resume hint (see ``docs/engine.md``).
``runall [--parallel N] [--run-id ID | --resume ID]``
    ``run all`` with the same flags, a pool one worker per CPU wide by
    default, and an engine summary footer on stdout.
``predict --f F --fcon C --fored O [...]``
    One-off speedup prediction for an application you characterise on the
    command line — the library's headline use case without writing code.
``cache info|clear``
    Inspect or drop the on-disk unit cache (simulator-backed experiments
    reuse results across invocations; ``--no-sweep-cache`` on
    ``run``/``characterize`` opts a single invocation out).
``stats <metrics.jsonl> [--prometheus]``
    Render a metrics/span JSONL file written by ``--metrics-out`` (see
    ``docs/observability.md``) as terminal tables, or re-emit it in the
    Prometheus text exposition format.
``serve [--host H] [--port P] [--cache-size N] [--no-metrics]``
    Run the async model-query HTTP/JSON server (:mod:`repro.serve`):
    point/sweep evaluation of Eqs 1–8, optimal-(r, rl) search, and
    paper-report endpoints over the pipeline's cache tiers, with
    ``/metrics`` (Prometheus) and ``/healthz``.  See ``docs/serving.md``.
``worker --connect HOST:PORT [--name N] [--retry-for S]``
    Join a coordinator started with ``run``/``runall --listen`` as a
    remote execution worker: lease work units over the socket protocol
    of :mod:`repro.engine.remote`, execute them via the executor
    registry, stream results (and observability deltas) back.  A TCP
    worker runs the built-in unit kinds; a local ``--parallel`` worker
    also imports the modules that registered the coordinator's other
    executors.  See the "Distributed execution" section of
    ``docs/engine.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import os
import sys

from repro.core import merging, optimizer
from repro.core.params import AppParams
from repro.experiments.registry import (
    EXPERIMENTS,
    describe_experiment,
    filter_options,
    run_experiments,
)
from repro.util.logging import configure, get_logger

__all__ = ["main", "entry", "build_parser", "version_string"]

log = get_logger("cli")


@functools.cache
def version_string() -> str:
    """The installed package version (falls back to ``repro.__version__``
    for PYTHONPATH-only checkouts that were never pip-installed).  Looked
    up once per process: ``/healthz`` reports it on every request."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except (ImportError, PackageNotFoundError):
        import repro

        return repro.__version__


class _VersionAction(argparse._VersionAction):
    """``--version`` that looks the version up only when it is given:
    importing ``importlib.metadata`` costs 15–20 ms, which every other
    command would pay at start-up."""

    def __call__(self, parser, namespace, values, option_string=None):
        self.version = f"%(prog)s {version_string()}"
        super().__call__(parser, namespace, values, option_string)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-merging",
        description=(
            "Reproduction of 'Implications of Merging Phases on Scalability "
            "of Multi-core Architectures' (ICPP 2011)"
        ),
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    parser.add_argument("--version", action=_VersionAction)
    sub = parser.add_subparsers(dest="command", required=True)

    list_p = sub.add_parser("list", help="list available experiments")
    list_p.add_argument("--json", action="store_true",
                        help="machine-readable listing: id, description, "
                             "accepted options, whether units are declared")

    # run and runall take the same flags and share one command function
    runs = argparse.ArgumentParser(add_help=False)
    runs.add_argument("--scale", type=float, default=None,
                      help="dataset scale for simulator-backed experiments (0..1]")
    runs.add_argument("--threads", default=None, metavar="LIST",
                      help="comma-separated thread counts for simulator "
                           "sweeps (e.g. 1,2,4)")
    runs.add_argument("--csv", action="store_true", help="emit tables as CSV")
    runs.add_argument("--json", metavar="DIR", default=None,
                      help="also write each report as JSON into DIR")
    runs.add_argument("--no-sweep-cache", action="store_true",
                      help="skip the on-disk simulation sweep cache")
    runs.add_argument("--parallel", type=int, default=None, metavar="N",
                      help="run the declared units on N local worker "
                           "processes (default: 1 for run, one per CPU "
                           "capped at 8 for runall; reports stay "
                           "byte-identical to serial runs)")
    runs.add_argument("--event-log", metavar="PATH", default=None,
                      help="append engine events (dispatch, cache hits, "
                           "crashes, ETA) as JSONL")
    runs.add_argument("--metrics-out", metavar="PATH", default=None,
                      help="enable observability and write metrics + spans "
                           "as JSONL to PATH (render with 'repro stats')")
    runs.add_argument("--run-id", default=None, metavar="ID",
                      help="journal settled units under "
                           ".repro-cache/runs/ID so a killed run is "
                           "resumable with --resume ID")
    runs.add_argument("--resume", default=None, metavar="ID",
                      help="resume a journaled run: replay its journal as "
                           "the first cache tier, restore the options from "
                           "its manifest and re-execute only what had not "
                           "settled")
    runs.add_argument("--listen", default=None, metavar="HOST:PORT",
                      help="execute units on remote workers: bind the "
                           "coordinator socket and wait for 'repro worker "
                           "--connect' processes (port 0 picks a free one)")
    runs.add_argument("--worker-timeout", type=float, default=None,
                      metavar="S",
                      help="with --listen: fall back to in-process serial "
                           "execution when no worker connects within S "
                           "seconds (default: wait indefinitely)")
    runs.add_argument("--lease-timeout", type=float, default=600.0,
                      metavar="S",
                      help="re-issue a unit whose worker has not reported "
                           "back within S seconds; with --parallel the "
                           "local worker holding it is also killed and "
                           "respawned (default: 600)")

    run_p = sub.add_parser("run", parents=[runs],
                           help="run an experiment and print its report")
    run_p.add_argument("experiment", nargs="?", default=None,
                       help="experiment id, or 'all' (optional with "
                            "--resume: the run's manifest supplies it)")
    run_p.add_argument("--plot", action="store_true",
                       help="render figure series as terminal line charts")
    sub.add_parser(
        "runall", parents=[runs],
        help="run every experiment, precomputing all sweeps on a worker pool",
    ).set_defaults(experiment="all")

    pred = sub.add_parser("predict", help="speedup prediction for custom parameters")
    pred.add_argument("--f", type=float, required=True, help="parallel fraction")
    pred.add_argument("--fcon", type=float, required=True,
                      help="constant share of serial time (0..1)")
    pred.add_argument("--fored", type=float, required=True,
                      help="growing share of reduction time (0..1)")
    pred.add_argument("--n", type=int, default=256, help="chip budget in BCEs")
    pred.add_argument("--growth", default="linear",
                      help="linear | log | parallel | poly:<alpha>")
    pred.add_argument("--target", type=float, default=None,
                      help="also report the merge-overhead budget that "
                           "would still reach TARGET speedup on --cores cores")
    pred.add_argument("--cores", type=int, default=64,
                      help="core count for the --target analysis")

    char = sub.add_parser(
        "characterize",
        help="simulate a workload across core counts and extract its parameters",
    )
    char.add_argument("workload", choices=["kmeans", "fuzzy", "hop", "histogram"])
    char.add_argument("--scale", type=float, default=0.10,
                      help="dataset scale relative to the paper's (0..1]")
    char.add_argument("--max-threads", type=int, default=16)
    char.add_argument("--reduction", default="serial",
                      choices=["serial", "tree", "parallel"],
                      help="merge strategy (kmeans/fuzzy only)")
    char.add_argument("--no-sweep-cache", action="store_true",
                      help="skip the on-disk simulation sweep cache")

    cache_p = sub.add_parser(
        "cache", help="inspect or clear the on-disk simulation sweep cache"
    )
    cache_p.add_argument("action", choices=["info", "clear"])

    stats_p = sub.add_parser(
        "stats", help="render a metrics JSONL file written by --metrics-out"
    )
    stats_p.add_argument("metrics_file", help="JSONL from run/runall --metrics-out")
    stats_p.add_argument("--prometheus", action="store_true",
                         help="emit the Prometheus text exposition format "
                              "instead of terminal tables")

    serve_p = sub.add_parser(
        "serve", help="run the async model-query HTTP/JSON server"
    )
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=8177,
                         help="bind port (default 8177; 0 picks a free one)")
    serve_p.add_argument("--cache-size", type=int, default=4096, metavar="N",
                         help="in-memory LRU response-cache entries "
                              "(0 disables the tier)")
    serve_p.add_argument("--no-metrics", action="store_true",
                         help="leave observability off (/metrics will be "
                              "empty; saves the instrumentation branch)")
    serve_p.add_argument("--idle-timeout", type=float, default=30.0,
                         metavar="S",
                         help="close a keep-alive connection after S seconds "
                              "without a complete request (default 30)")

    worker_p = sub.add_parser(
        "worker",
        help="join a 'run/runall --listen' coordinator as a remote worker",
    )
    worker_p.add_argument("--connect", required=True, metavar="HOST:PORT",
                          help="the coordinator address printed by --listen")
    worker_p.add_argument("--name", default=None,
                          help="worker name on the coordinator's event "
                               "stream (default: hostname-pid)")
    worker_p.add_argument("--retry-for", type=float, default=30.0,
                          metavar="S",
                          help="keep reconnecting/idling for S seconds after "
                               "the last successful lease before exiting "
                               "(default 30; survives coordinator restarts)")

    diff_p = sub.add_parser(
        "diff", help="compare two stored JSON reports of the same experiment"
    )
    diff_p.add_argument("old", help="baseline report (.json)")
    diff_p.add_argument("new", help="candidate report (.json)")

    sim_p = sub.add_parser(
        "simulate", help="run a serialized trace program (.jsonl) on a machine"
    )
    sim_p.add_argument("trace", help="trace file written by simx.traceio")
    sim_p.add_argument("--cores", type=int, default=16)
    sim_p.add_argument("--interconnect", choices=["bus", "mesh"], default="bus")
    sim_p.add_argument("--dram", choices=["flat", "banked"], default="flat")
    sim_p.add_argument("--protocol", choices=["mesi", "msi"], default="mesi")
    sim_p.add_argument("--reference-engine", action="store_true",
                       help="force the op-at-a-time reference engine")
    sim_p.add_argument("--scheduler", choices=["pinned", "round-robin", "acmp"],
                       default="pinned",
                       help="thread dispatch policy; non-pinned schedulers "
                            "time-multiplex and allow more threads than cores")
    sim_p.add_argument("--quantum", type=int, default=None,
                       help="preemption quantum in cycles "
                            "(round-robin/acmp only; default: run to block)")
    sim_p.add_argument("--migration-cost", type=int, default=0,
                       help="cycles charged when a thread resumes on a "
                            "different core (round-robin/acmp only)")
    sim_p.add_argument("--acmp-policy",
                       choices=["first-come", "reduction-owns-big",
                                "migrate-on-phase"],
                       default="first-come",
                       help="big-core ownership policy (acmp scheduler only)")
    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    if getattr(args, "json", False):
        import json

        from repro.experiments.registry import SPECS, listing

        entries = [{**entry, "declares_units": SPECS[entry["id"]].declares_units}
                   for entry in listing()]
        print(json.dumps(entries, indent=2))
        return 0
    width = max(len(name) for name in EXPERIMENTS)
    for name in sorted(EXPERIMENTS):
        print(f"{name:{width}}  {describe_experiment(name)}".rstrip())
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.pipeline import get_disk_store

    disk = get_disk_store()
    if disk is None:
        print("sweep cache disabled (REPRO_SWEEP_CACHE=off)")
    elif args.action == "clear":
        print(f"sweep cache cleared: {disk.clear()} entries removed")
    else:
        print(f"{'disk_path':15} {disk.root}")
        print(f"{'disk_entries':15} {len(disk)}")
    return 0


def _all_experiment_ids() -> list:
    return sorted(k for k in EXPERIMENTS if not k.startswith("ablation-"))


@contextlib.contextmanager
def _metrics_context(args: argparse.Namespace):
    """Enable observability for the command when ``--metrics-out`` was
    given; writes the JSONL snapshot on exit (even after a failure)."""
    path = args.metrics_out
    if path is None:
        yield None
        return
    from repro import obs

    obs.set_enabled(True)  # local engine workers inherit the switch
    try:
        yield path
    finally:
        obs.set_enabled(False)
        out = obs.write_jsonl(path, meta={"command": args.command})
        obs.reset()
        obs.RECORDER.clear()
        print(f"[metrics written to {out}]")


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.serve import ServeApp
    from repro.serve import server as serve_server

    if not args.no_metrics:
        obs.set_enabled(True)
        os.environ["REPRO_OBS"] = "1"  # reach any spawned engine workers
    return serve_server.run(ServeApp(cache_size=args.cache_size),
                            host=args.host, port=args.port,
                            idle_timeout=args.idle_timeout)


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.engine.remote import run_worker

    return run_worker(args.connect, name=args.name, retry_for=args.retry_for)


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro import obs

    data = obs.read_jsonl(args.metrics_file)
    if args.prometheus:
        reg = obs.MetricsRegistry(enabled=True)
        reg.merge_snapshot(data["metrics"])
        sys.stdout.write(obs.render_prometheus(reg))
    else:
        print(obs.render_stats(data))
    return 0


def _gather_options(args: argparse.Namespace) -> dict:
    """Driver options from the CLI flags (filtered per driver later)."""
    options: dict = {}
    if args.scale is not None:
        options["scale"] = args.scale
    if args.threads:
        options["thread_counts"] = [int(t) for t in args.threads.split(",") if t]
    return options


def _resolve_run(args: argparse.Namespace, options: dict) -> "str | None":
    """The run id for this invocation (``--resume`` wins over ``--run-id``).

    Resuming merges the stored manifest into ``args``/``options``:
    explicit CLI flags win, everything else comes back exactly as the
    interrupted run had it — so ``repro run --resume <id>`` needs no
    other arguments.
    """
    resume = args.resume
    run_id = resume or args.run_id
    if resume:
        from repro.engine import read_manifest, resolve_run_dir

        # refuses to resume a run it cannot find (raises FileNotFoundError
        # with a hint) instead of silently opening a fresh journal — the
        # runs root is CWD-relative unless REPRO_RUNS_DIR is set
        manifest = read_manifest(resolve_run_dir(resume)) or {}
        if args.experiment is None:
            args.experiment = manifest.get("experiment")
        for k, v in (manifest.get("options") or {}).items():
            options.setdefault(k, v)
    return run_id


def _write_run_manifest(run_id: str, command: str, experiment: str,
                        options: dict) -> None:
    from repro.engine import run_path, runs_root, write_manifest

    write_manifest(run_path(run_id, create=True), {
        "command": command, "experiment": experiment, "options": options,
        # absolute, so a resume attempt from the wrong CWD can be told
        # where the run actually lives (see journal.resolve_run_dir)
        "runs_root": str(runs_root().resolve()),
    })


def _announce_listener(sess) -> None:
    """Tell the operator where remote workers should connect."""
    address = sess.remote_address
    if address:
        print(f"[coordinator listening on {address}; join with: "
              f"repro worker --connect {address}]", file=sys.stderr)


def _interrupted_exit(exc, run_id: "str | None") -> int:
    """Report a graceful drain and how to pick the run back up (exit 130,
    the shell convention for death-by-signal)."""
    hint = f"; resume with: --resume {run_id}" if run_id else ""
    print(f"run interrupted ({exc.reason}): {exc.settled} unit(s) settled, "
          f"{exc.pending} pending{hint}", file=sys.stderr)
    return 130


def _print_reports(ids, args: argparse.Namespace, options: dict) -> bool:
    """Run and print each experiment; True when any comparison failed.

    ``options`` applies across the whole batch; each driver receives
    only the knobs it accepts (:func:`~repro.experiments.registry
    .filter_options`).  All of the experiments run as one
    :func:`~repro.experiments.registry.run_experiments` batch."""
    failed = False
    reports = run_experiments([(eid, filter_options(eid, options)) for eid in ids])
    for eid, report in zip(ids, reports):
        if args.csv:
            for t in report.tables:
                print(t.to_csv())
                print()
        else:
            print(report.render())
            print()
        if getattr(args, "plot", False):
            from repro.viz.report_plots import render_report_charts

            charts = render_report_charts(report)
            if charts:
                print(charts)
                print()
        if args.json:
            from pathlib import Path

            from repro.experiments.store import save_report

            path = save_report(report, Path(args.json) / f"{eid}.json")
            log.info("wrote %s", path)
        if not report.all_match:
            failed = True
            log.warning("experiment %s: some paper comparisons did not hold", eid)
    return failed


@contextlib.contextmanager
def _disk_tier(args: argparse.Namespace):
    """``--no-sweep-cache``: the process-global disk tier is off while the
    command runs and restored when it returns."""
    if not getattr(args, "no_sweep_cache", False):
        yield
        return
    from repro.pipeline import get_disk_store, set_disk_store

    previous = get_disk_store()
    set_disk_store(None)
    try:
        yield
    finally:
        set_disk_store(previous)


def _cmd_run(args: argparse.Namespace) -> int:
    """``run`` and ``runall``: one engine session settles the declared
    units of the selected experiments in one batch, then each report
    assembles from them."""
    from repro import engine

    options = _gather_options(args)
    try:
        run_id = _resolve_run(args, options)
    except FileNotFoundError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    if args.experiment is None:
        print("run: an experiment id is required (or --resume a run whose "
              "manifest records one)", file=sys.stderr)
        return 2
    ids = _all_experiment_ids() if args.experiment == "all" else [args.experiment]
    workers = args.parallel
    if workers is None and args.command == "run":
        workers = 1  # runall's None is the session's default width
    with _metrics_context(args), \
            engine.session(workers, event_log=args.event_log,
                           run_id=run_id, drain_signals=True,
                           listen=args.listen,
                           worker_timeout=args.worker_timeout,
                           lease_timeout=args.lease_timeout) as sess:
        if run_id is not None:
            _write_run_manifest(run_id, args.command, args.experiment, options)
        _announce_listener(sess)
        try:
            failed = _print_reports(ids, args, options)
        except engine.RunInterrupted as exc:
            return _interrupted_exit(exc, run_id)
        if args.command == "runall":
            print(f"[{len(ids)} experiments; engine: {sess.summary()}]")
        else:
            log.info("engine: %s", sess.summary())
    return 1 if failed else 0


def _cmd_predict(args: argparse.Namespace) -> int:
    params = AppParams(f=args.f, fcon_share=args.fcon, fored_share=args.fored)
    cmp_ = optimizer.compare_architectures(params, args.n, growth=args.growth)
    print(f"application: {params.describe()}")
    sym = cmp_.symmetric
    asym = cmp_.asymmetric
    print(
        f"best symmetric : {sym.cores:.0f} cores of {sym.r:.0f} BCEs "
        f"-> speedup {sym.speedup:.1f}"
    )
    print(
        f"best asymmetric: 1x{asym.rl:.0f} BCE + {asym.small_cores:.0f}x{asym.r:.0f} "
        f"BCEs -> speedup {asym.speedup:.1f}"
    )
    print(
        f"Amdahl would predict {cmp_.amdahl_symmetric:.1f} (sym) / "
        f"{cmp_.amdahl_asymmetric:.1f} (asym)"
    )
    print(f"ACMP advantage: {cmp_.acmp_speedup_ratio:.2f}x "
          f"(Amdahl: {cmp_.amdahl_speedup_ratio:.2f}x)")
    if args.target is not None:
        from repro.core.requirements import max_affordable_overhead

        budget = max_affordable_overhead(
            args.f, args.fcon, args.cores, args.target
        )
        if budget <= 0:
            print(f"target {args.target:.0f}x on {args.cores} cores: "
                  "unreachable even with a flat merge")
        else:
            print(
                f"target {args.target:.0f}x on {args.cores} flat cores: the "
                f"merge may grow by at most {budget:.0%} of its single-core "
                f"time per added core (Table II form: fored <= {budget:.2f})"
            )
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro.pipeline import simulate_breakdowns
    from repro.workloads import default_workloads
    from repro.workloads.instrument import (
        extract_parameters,
        serial_growth_curve,
        speedup_curve,
    )

    workloads = dict(default_workloads(args.scale))
    if args.workload == "histogram":
        from repro.workloads.histogram import HistogramWorkload

        workloads["histogram"] = HistogramWorkload(
            n_items=max(2000, int(100_000 * args.scale)), n_bins=2048
        )
    workload = workloads[args.workload]
    if args.reduction != "serial" and hasattr(workload, "reduction_strategy"):
        from dataclasses import replace

        workload = replace(workload, reduction_strategy=args.reduction)
    threads = [p for p in (1, 2, 4, 8, 16, 32) if p <= args.max_threads]
    print(f"simulating {args.workload} at scale {args.scale} "
          f"on {threads} cores...")
    breakdowns = simulate_breakdowns(
        workload, threads, n_cores=max(threads), mem_scale=2
    )
    print("speedup:        ",
          {p: round(v, 2) for p, v in speedup_curve(breakdowns).items()})
    print("serial growth:  ",
          {p: round(v, 2) for p, v in serial_growth_curve(breakdowns).items()})
    ep = extract_parameters(breakdowns, args.workload)
    print(f"\nf     = {1 - ep.serial_pct / 100:.5f}   (serial {ep.serial_pct:.4f}%)")
    print(f"fcon  = {ep.fcon_share:.0%} of serial time")
    print(f"fred  = {ep.fred_share:.0%} of serial time")
    print(f"fored = {ep.fored_rel:.0%} relative growth/core "
          f"(alpha = {ep.growth_alpha:.2f})")
    design = ep.to_measured_params().to_design_params()
    best = merging.best_symmetric(design, 256)
    print(f"\noptimal 256-BCE symmetric chip: {best.cores:.0f} cores of "
          f"{best.r:.0f} BCEs -> {best.speedup:.1f}x")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.experiments.diffing import diff_reports
    from repro.experiments.store import load_report

    diff = diff_reports(load_report(args.old), load_report(args.new))
    print(diff.render())
    return 0 if diff.is_clean or not diff.flipped_claims else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.simx import Machine, MachineConfig
    from repro.simx.traceio import load_program

    config = MachineConfig(
        n_cores=args.cores,
        interconnect=args.interconnect,
        dram=args.dram,
        coherence_protocol=args.protocol,
        batch_path=not args.reference_engine,
        scheduler=args.scheduler,
        quantum=args.quantum,
        migration_cost=args.migration_cost,
        acmp_policy=args.acmp_policy,
    )
    try:
        program = load_program(args.trace)
    except (OSError, ValueError) as exc:
        print(f"simulate: {exc}", file=sys.stderr)
        return 2
    print(Machine(config).run(program).summary())
    return 0


_COMMANDS = {
    "list": _cmd_list, "run": _cmd_run, "runall": _cmd_run,
    "predict": _cmd_predict, "characterize": _cmd_characterize,
    "cache": _cmd_cache, "stats": _cmd_stats, "serve": _cmd_serve,
    "worker": _cmd_worker, "diff": _cmd_diff, "simulate": _cmd_simulate,
}


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    configure(verbose=args.verbose)
    try:
        with _disk_tier(args):
            code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
    except BrokenPipeError:
        # the reader went away (``repro list | head``): send the rest of
        # the output to devnull so the interpreter's exit flush is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


def entry() -> int:
    """The process entry point of ``python -m repro`` and the
    ``repro-merging`` console script; library callers use :func:`main`."""
    # Move every object that exists once the CLI is imported (modules,
    # classes, functions, numpy's tables) out of the cyclic collector's
    # generations: none of it becomes garbage, yet each full collection
    # traverses all of it.  On a 2-vCPU host a cold ``runall --parallel 1``
    # spent about 46 ms in full collections without this and about 5 ms
    # with it.
    gc.freeze()
    return main()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(entry())
