"""Unit tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture
def cold_caches(tmp_path):
    """An empty disk tier, so the units of a run really execute."""
    from repro import pipeline

    restore = pipeline.get_disk_store()
    pipeline.set_disk_store(tmp_path / "sweeps")
    yield
    pipeline.set_disk_store(restore)


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_with_options(self):
        args = build_parser().parse_args(["run", "fig4", "--csv", "--scale", "0.1"])
        assert args.experiment == "fig4"
        assert args.csv and args.scale == 0.1

    def test_predict_requires_params(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["predict"])

    def test_run_experiment_optional_with_resume(self):
        args = build_parser().parse_args(["run", "--resume", "nightly"])
        assert args.experiment is None and args.resume == "nightly"

    def test_run_accepts_run_id_and_threads(self):
        args = build_parser().parse_args(
            ["run", "table2", "--run-id", "r1", "--threads", "1,2,4"])
        assert args.run_id == "r1" and args.threads == "1,2,4"


class TestCommands:
    def test_list_prints_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "table2" in out

    def test_list_prints_descriptions(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out  # description, not just the bare id

    def test_list_json_includes_accepted_options(self, capsys):
        assert main(["list", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        by_id = {e["id"]: e for e in entries}
        for eid, options in (("table2", ["mem_scale", "scale", "thread_counts"]),
                             ("fig4", ["n"]),
                             ("ext-oversubscription-sweep", [])):
            assert by_id[eid]["options"] == options, eid
        assert by_id["ext-oversubscription-sweep"]["declares_units"]
        assert not by_id["fig4"]["declares_units"]
        for entry in entries:
            assert set(entry) == {"id", "description", "options", "declares_units"}

    def test_run_parallel_flag(self, capsys):
        assert main(["run", "fig4", "--parallel", "2"]) == 0
        assert "fig4" in capsys.readouterr().out

    def test_runall_smoke(self, capsys, monkeypatch):
        import repro.cli as cli
        from repro.experiments.registry import EXPERIMENTS

        monkeypatch.setattr(cli, "EXPERIMENTS", {"fig7": EXPERIMENTS["fig7"]})
        assert main(["runall", "--parallel", "2"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out and "engine:" in out

    def test_run_analytic_experiment(self, capsys):
        assert main(["run", "fig7"]) == 0
        out = capsys.readouterr().out
        assert "51.6" in out

    def test_run_csv_mode(self, capsys):
        assert main(["run", "table3", "--csv"]) == 0
        out = capsys.readouterr().out
        assert "parallelism,constant,reduction" in out

    def test_no_sweep_cache_restores_the_disk_store(self, capsys):
        """The disk tier is process-global: ``--no-sweep-cache`` turns it
        off for the command only, not for later calls in the process."""
        from repro import pipeline

        before = pipeline.get_disk_store()
        assert before is not None
        assert main(["run", "table3", "--no-sweep-cache"]) == 0
        capsys.readouterr()
        assert pipeline.get_disk_store() is before

    def test_run_and_runall_share_their_flags(self):
        parser = build_parser()
        run = vars(parser.parse_args(["run", "all"]))
        runall = vars(parser.parse_args(["runall"]))
        assert run.pop("command") == "run" and runall.pop("command") == "runall"
        assert run.pop("plot") is False
        assert run == runall

    def test_event_log_needs_no_parallel_flag(self, capsys, tmp_path,
                                              cold_caches):
        path = tmp_path / "ev.jsonl"
        rc = main(["run", "table2", "--scale", "0.03", "--threads", "1,2",
                   "--event-log", str(path)])
        assert rc in (0, 1)  # tiny scales may miss paper comparisons
        kinds = [json.loads(line)["kind"]
                 for line in path.read_text().splitlines()]
        assert kinds.count("unit_done") == 6  # 3 workloads x 2 points
        assert "serial_fallback" not in kinds
        assert "table2" in capsys.readouterr().out

    def test_fig2_without_the_16_core_point(self, capsys, tmp_path):
        """Its 16-core claims cannot be checked: they read 'p=16 not
        swept', do not hold, and the run exits 1 instead of crashing."""
        from repro.experiments.store import load_report

        assert main(["run", "fig2", "--scale", "0.03", "--threads", "1,2",
                     "--json", str(tmp_path)]) == 1
        report = load_report(tmp_path / "fig2.json")
        unswept = [c for c in report.comparisons
                   if c.measured_value == "p=16 not swept"]
        assert [c.claim[:4] for c in unswept] == ["2(a)"] * 3 + ["2(b)"] * 3
        assert not any(c.matches() for c in unswept)
        assert "p=16 not swept" in capsys.readouterr().out

    def test_list_into_a_closed_pipe_exits_quietly(self):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first write
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "list", "--json"],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
                timeout=120)
        finally:
            os.close(write_end)
        assert proc.stderr == b""  # no BrokenPipeError traceback
        assert proc.returncode == 1

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment 'fig99'" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("flags", [
        ["--scale", "0"], ["--scale", "1.5"], ["--scale", "nan"],
        ["--threads", "0,2"], ["--threads", "2,-4"], ["--threads", ""],
        ["--threads", "two"],
    ], ids=["scale-0", "scale-above-1", "scale-nan", "threads-0",
            "threads-negative", "threads-empty", "threads-not-int"])
    @pytest.mark.parametrize("command", [["run", "table2"], ["runall"]])
    def test_bad_option_value_is_a_usage_error(self, capsys, command, flags):
        """A bad value is one line on stderr and exit 2, before any
        experiment runs; exit 1 means a paper comparison failed."""
        assert main(command + flags) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"{command[0]}: ")

    def test_run_without_experiment_or_manifest_is_an_error(
            self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        assert main(["run"]) == 2
        assert "experiment id is required" in capsys.readouterr().err

    def test_run_with_run_id_journals_and_resumes(
            self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        assert main(["run", "fig7", "--run-id", "cli-r1"]) == 0
        run_dir = tmp_path / "cli-r1"
        assert (run_dir / "manifest.json").exists()
        assert (run_dir / "events.jsonl").exists()
        capsys.readouterr()
        # resume needs no experiment argument: the manifest supplies it
        assert main(["run", "--resume", "cli-r1"]) == 0
        assert "fig7" in capsys.readouterr().out

    def test_predict(self, capsys):
        rc = main([
            "predict", "--f", "0.99", "--fcon", "0.6", "--fored", "0.8",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "best symmetric" in out
        assert "36.2" in out  # the paper's 4(d) peak
        assert "43.3" in out  # the paper's 5(h) peak

    def test_predict_with_target(self, capsys):
        rc = main([
            "predict", "--f", "0.999", "--fcon", "0.6", "--fored", "0.1",
            "--target", "40", "--cores", "64",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fored <=" in out

    def test_predict_with_unreachable_target(self, capsys):
        rc = main([
            "predict", "--f", "0.99", "--fcon", "0.6", "--fored", "0.1",
            "--target", "500", "--cores", "64",
        ])
        assert rc == 0
        assert "unreachable" in capsys.readouterr().out

    def test_predict_with_log_growth(self, capsys):
        rc = main([
            "predict", "--f", "0.999", "--fcon", "0.6", "--fored", "0.1",
            "--growth", "log",
        ])
        assert rc == 0
        assert "ACMP advantage" in capsys.readouterr().out

    def test_characterize(self, capsys):
        rc = main([
            "characterize", "kmeans", "--scale", "0.03", "--max-threads", "4",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fored" in out and "optimal 256-BCE" in out

    def test_characterize_with_tree_reduction(self, capsys):
        rc = main([
            "characterize", "kmeans", "--scale", "0.03", "--max-threads", "4",
            "--reduction", "tree",
        ])
        assert rc == 0
        assert "fored" in capsys.readouterr().out

    def test_characterize_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["characterize", "apriori"])

    def test_diff_identical_reports(self, capsys, tmp_path):
        assert main(["run", "fig1", "--json", str(tmp_path)]) == 0
        capsys.readouterr()
        rc = main([
            "diff", str(tmp_path / "fig1.json"), str(tmp_path / "fig1.json"),
        ])
        assert rc == 0
        assert "no differences" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [
        ["stats"], ["diff", "{tmp}/also-missing.json"],
    ], ids=["stats", "diff"])
    def test_missing_input_file_is_a_usage_error(self, capsys, tmp_path,
                                                 command):
        argv = [command[0], str(tmp_path / "missing.json")]
        argv += [a.format(tmp=tmp_path) for a in command[1:]]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{command[0]}: ") and "missing.json" in err
        assert len(err.splitlines()) == 1

    def test_simulate_trace_file(self, capsys, tmp_path):
        from repro.simx import Compute, ThreadTrace, TraceProgram
        from repro.simx.traceio import dump_program

        prog = TraceProgram("tiny", [ThreadTrace(0, [Compute(1000)])])
        path = dump_program(prog, tmp_path / "tiny.jsonl")
        rc = main(["simulate", str(path), "--cores", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tiny" in out and "coherence" in out

    def test_simulate_oversubscribed_with_scheduler(self, capsys, tmp_path):
        from repro.simx import Compute, ThreadTrace, TraceProgram
        from repro.simx.traceio import dump_program

        prog = TraceProgram(
            "wide", [ThreadTrace(t, [Compute(500)] * 4) for t in range(4)]
        )
        path = dump_program(prog, tmp_path / "wide.jsonl")
        rc = main([
            "simulate", str(path), "--cores", "2",
            "--scheduler", "round-robin", "--quantum", "600",
            "--migration-cost", "10",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "round-robin" in out and "preemptions" in out

    def test_simulate_missing_trace_file(self, capsys, tmp_path):
        rc = main(["simulate", str(tmp_path / "absent.jsonl")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.strip().splitlines()
        assert line.startswith("simulate: ") and "absent.jsonl" in line

    def test_simulate_malformed_trace_line(self, capsys, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"kind": "program", "name": "x", "n_threads": 1, "metadata": {}}\n'
            '{"t": 0, "op": "C", "n": 10}\n'
            '{"t": 0, "op": \n'
        )
        rc = main(["simulate", str(path)])
        assert rc == 2
        [line] = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("simulate: ") and "bad.jsonl:3" in line

    @pytest.mark.parametrize("interconnect", ["bus", "mesh"])
    def test_simulate_engines_print_identical_summaries(
        self, capsys, tmp_path, interconnect
    ):
        """A shared line, a lock and a barrier: the default (batch) engine
        and ``--reference-engine`` must print the same bytes."""
        from repro.simx import (
            Barrier, Compute, Load, Lock, PhaseBegin, PhaseEnd, Store,
            ThreadTrace, TraceProgram, Unlock,
        )
        from repro.simx.traceio import dump_program

        threads = []
        for tid in range(4):
            base = (0x1000 + tid * 0x100) * 64
            ops = [PhaseBegin("parallel"), Compute(100 + 10 * tid)]
            ops += [Load(base + i * 64) for i in range(12)]
            ops += [Store(base), PhaseEnd("parallel"), Barrier(0),
                    PhaseBegin("merge"), Lock(0), Load(0), Compute(5),
                    Store(0), Unlock(0), PhaseEnd("merge")]
            threads.append(ThreadTrace(tid, ops))
        path = dump_program(TraceProgram("merge", threads), tmp_path / "m.jsonl")
        outputs = []
        for flags in ([], ["--reference-engine"]):
            rc = main(["simulate", str(path), "--cores", "4",
                       "--interconnect", interconnect, *flags])
            assert rc == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "merge" in outputs[0] and "invalidations" in outputs[0]


class TestCacheCommand:
    @pytest.fixture
    def warm_store(self, tmp_path):
        """A private disk tier holding one sweep point."""
        from repro import pipeline
        from repro.workloads import default_workloads

        restore = pipeline.get_disk_store()
        pipeline.set_disk_store(tmp_path / "sweeps")
        wl = default_workloads(0.03)["kmeans"]
        pipeline.simulate_breakdowns(wl, (1,), n_cores=2, mem_scale=8)
        yield pipeline.get_disk_store()
        pipeline.set_disk_store(restore)

    @staticmethod
    def _info(capsys) -> dict:
        assert main(["cache", "info"]) == 0
        rows = [line.split(None, 1) for line in capsys.readouterr().out.splitlines()]
        return {k: v.strip() for k, v in rows}

    def test_info_prints_every_tier(self, capsys, warm_store):
        info = self._info(capsys)
        assert info == {"disk_path": str(warm_store.root), "disk_entries": "1"}

    def test_info_says_when_the_tier_is_disabled(self, capsys):
        from repro import pipeline

        restore = pipeline.get_disk_store()
        pipeline.set_disk_store(None)
        try:
            assert main(["cache", "info"]) == 0
            out = capsys.readouterr().out
        finally:
            pipeline.set_disk_store(restore)
        assert "disabled" in out
        assert "disk_hits" not in out  # no per-process counters to report

    def test_clear_empties_disk_entries(self, capsys, warm_store):
        assert main(["cache", "clear"]) == 0
        assert "sweep cache cleared: 1 entries removed" in capsys.readouterr().out
        assert self._info(capsys)["disk_entries"] == "0"
        assert len(warm_store) == 0


class TestVersion:
    def test_version_flag_prints_and_exits(self, capsys):
        from repro.cli import version_string

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert version_string() in capsys.readouterr().out

    def test_version_string_matches_package_metadata(self):
        import repro
        from repro.cli import version_string

        v = version_string()
        assert v  # never empty
        # installed dist metadata if available, else the module fallback —
        # either way it must agree with repro.__version__ (pyproject pins both)
        assert v == repro.__version__


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1" and args.port == 8177
        assert args.cache_size == 4096 and not args.no_metrics

    def test_serve_options(self):
        args = build_parser().parse_args(
            ["serve", "--host", "0.0.0.0", "--port", "9000",
             "--cache-size", "16", "--no-metrics"])
        assert args.host == "0.0.0.0" and args.port == 9000
        assert args.cache_size == 16 and args.no_metrics
