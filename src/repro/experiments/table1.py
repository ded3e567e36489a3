"""Table I — baseline configuration."""

from __future__ import annotations

from repro.experiments.report import ExperimentReport
from repro.simx.config import MachineConfig
from repro.util.tables import TextTable
from repro.pipeline import ExperimentSpec

__all__ = ["run", "SPEC"]


def run() -> ExperimentReport:
    """Render the baseline machine configuration as the paper's Table I."""
    cfg = MachineConfig.baseline()
    report = ExperimentReport("table1", "Baseline configuration")
    t = TextTable(title="Table I — baseline configuration", columns=["parameter", "value"])
    t.add_row(["Fetch, Issue, Commit", str(cfg.core.issue_width)])
    t.add_row([
        "Instn. Window, LSQ, ROB",
        f"{cfg.core.instruction_window}, {cfg.core.lsq_entries}, {cfg.core.rob_entries}",
    ])
    t.add_row([
        "L1 I/D Cache",
        f"{cfg.l1i.size // 1024}K/{cfg.l1d.size // 1024}K "
        f"{cfg.l1i.ways}/{cfg.l1d.ways} way private",
    ])
    t.add_row([
        "L2 Cache, Coherence",
        f"{cfg.l2.size // (1024 * 1024)}M {cfg.l2.ways} way shared, MESI",
    ])
    t.add_row([
        "Branch Pred., BTB Size",
        f"2level GAp {cfg.core.branch_history_entries} entr., {cfg.core.btb_entries}",
    ])
    t.add_row(["Cores", str(cfg.n_cores)])
    report.add_table(t)
    report.raw["config"] = cfg
    return report


SPEC = ExperimentSpec("table1", run)
