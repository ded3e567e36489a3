"""Scheduling questions the paper could not ask.

The paper's runs (and ``simx``'s default ``pinned`` dispatch) are strictly
one-thread-per-core, so merging-phase behaviour under an *OS scheduler* —
oversubscription, quantum preemption, big-core placement — was outside its
reach.  With the pluggable scheduler layer (:mod:`repro.simx.sched`) these
become ordinary trace experiments:

``ext-oversubscription-sweep``
    Fixed total work partitioned over 1×..4× as many threads as cores on a
    round-robin machine.  More threads add merge partials and context
    switches but no parallelism, so the knee the paper measures moves the
    wrong way.
``ext-acmp-merge-policy``
    The same merge on an asymmetric CMP under the three big-core ownership
    policies: who runs the reduction decides how much of the sqrt-area
    speedup it sees.
``ext-priority-inversion-reduction``
    A locked merge on an oversubscribed machine across a quantum sweep:
    with no priorities, a lock-holder woken by the handover re-enters the
    FIFO run queue behind background compute and every other reducer
    stalls behind it — priority inversion on the merge path, measured in
    cycles, and it grows with the quantum (longer spinner slices before
    the holder reclaims a core).

All simulator work is declared as ``sim-program`` units, so the specs
compose with ``runall``, journaling, ``--resume``, distributed workers and
serve exactly like every other experiment.
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.report import ExperimentReport, PaperComparison
from repro.pipeline import ExperimentSpec, sim_program_unit
from repro.simx import (
    Barrier,
    Compute,
    Load,
    Lock,
    MachineConfig,
    PhaseBegin,
    PhaseEnd,
    Store,
    ThreadTrace,
    TraceProgram,
    Unlock,
)
from repro.util.tables import TextTable

__all__ = [
    "run_oversubscription",
    "run_acmp_policy",
    "run_priority_inversion",
    "declare_units_oversubscription",
    "declare_units_acmp_policy",
    "declare_units_priority_inversion",
    "SPECS",
]

_LINE = 64
_SHARED = 0x3000_0000
_PRIVATE = 0x2000_0000


# ── trace builders (module-level: units carry them by reference) ──────────


def _merging_program(
    n_threads: int, total_updates: int, merge_elements: int
) -> TraceProgram:
    """Fixed total work split over ``n_threads``, privatised partials,
    master merge — one partial per thread, so the merge grows with the
    thread count while the parallel slice shrinks."""
    upd = max(1, total_updates // n_threads)
    merge_lines = max(1, merge_elements // 8)
    threads = []
    for tid in range(n_threads):
        own = _PRIVATE + tid * 0x1_0000
        ops = [PhaseBegin("parallel"), Compute(upd * 10)]
        for i in range(max(1, upd // 8)):
            ops.append(Store(own + (i % merge_lines) * _LINE))
        ops.append(Compute(upd * 2))
        ops.append(PhaseEnd("parallel"))
        if n_threads > 1:
            ops.append(Barrier(0))
        if tid == 0:
            ops.append(PhaseBegin("reduction"))
            for src in range(n_threads):
                for i in range(merge_lines):
                    ops.append(Load(_PRIVATE + src * 0x1_0000 + i * _LINE))
                ops.append(Compute(merge_elements * 2))
            ops.append(PhaseEnd("reduction"))
        if n_threads > 1:
            ops.append(Barrier(1))
        threads.append(ThreadTrace(tid, ops))
    return TraceProgram("merging", threads)


def _acmp_merge_program(
    n_threads: int, work: int, merge_elements: int
) -> TraceProgram:
    """Parallel work, then the *last* thread merges while the others keep
    computing.  The master enters its reduction phase *before* the barrier,
    so on release it re-enters the run queue as a serial-phase thread —
    the dispatch decision the ACMP policies differ on.  Making the master
    the last tid keeps ``first-come`` from handing it the big core (core
    0) by initial-placement luck."""
    master = n_threads - 1
    merge_lines = max(1, merge_elements // 8)
    threads = []
    for tid in range(n_threads):
        own = _PRIVATE + tid * 0x1_0000
        ops = [PhaseBegin("parallel"), Compute(work * 8)]
        for i in range(max(1, work // 8)):
            ops.append(Store(own + (i % merge_lines) * _LINE))
        ops.append(PhaseEnd("parallel"))
        if tid == master:
            ops.append(PhaseBegin("reduction"))
            ops.append(Barrier(0))
            for src in range(n_threads):
                for i in range(merge_lines):
                    ops.append(Load(_PRIVATE + src * 0x1_0000 + i * _LINE))
                ops.append(Compute(merge_elements * 4))
            ops.append(PhaseEnd("reduction"))
        else:
            ops.append(Barrier(0))
            # background work contends for cores during the merge
            ops.append(PhaseBegin("parallel"))
            ops.append(Compute(work * 6))
            ops.append(PhaseEnd("parallel"))
        ops.append(Barrier(1))
        threads.append(ThreadTrace(tid, ops))
    return TraceProgram("acmp-merge", threads)


def _locked_merge_program(
    n_reducers: int, n_spinners: int, updates: int, merge_elements: int
) -> TraceProgram:
    """Reducers merge into a shared accumulator behind one lock; spinners
    are compute-bound background threads chopped into many small ops (each
    op boundary is a preemption opportunity).  Oversubscribed, a reducer
    that blocks on the lock and is later woken by the handover re-queues
    behind the spinners — while still owning the lock."""
    merge_lines = max(1, merge_elements // 8)
    threads = []
    for tid in range(n_reducers):
        ops = [PhaseBegin("parallel"), Compute(updates * 8)]
        for i in range(max(1, updates // 8)):
            ops.append(Store(_PRIVATE + tid * 0x1_0000 + (i % 8) * _LINE))
        ops.append(PhaseEnd("parallel"))
        ops.append(PhaseBegin("reduction"))
        ops.append(Lock(0))
        for i in range(merge_lines):
            ops.append(Load(_SHARED + i * _LINE))
            ops.append(Compute(merge_elements // merge_lines * 2))
            ops.append(Store(_SHARED + i * _LINE))
        ops.append(Unlock(0))
        ops.append(PhaseEnd("reduction"))
        threads.append(ThreadTrace(tid, ops))
    for s in range(n_spinners):
        tid = n_reducers + s
        ops = [PhaseBegin("parallel")]
        for _ in range(max(1, updates // 4)):
            ops.append(Compute(64))
        ops.append(PhaseEnd("parallel"))
        threads.append(ThreadTrace(tid, ops))
    return TraceProgram("locked-merge", threads)


# ── ext-oversubscription-sweep ────────────────────────────────────────────


# threads/cores ratios, on a round-robin machine of this many cores
_OVERSUB_RATIOS = (1, 2, 3, 4)
_OVERSUB_CORES = 4
_OVERSUB_QUANTUM = 1200
_OVERSUB_MIGRATION_COST = 30
# the fixed work every ratio splits, and each partial's size
_OVERSUB_UPDATES = 4800
_OVERSUB_MERGE_ELEMENTS = 64


def declare_units_oversubscription() -> list:
    """One round-robin run per threads/cores ratio, fixed total work."""
    cfg = replace(
        MachineConfig.baseline(n_cores=_OVERSUB_CORES),
        scheduler="round-robin",
        quantum=_OVERSUB_QUANTUM,
        migration_cost=_OVERSUB_MIGRATION_COST,
    )
    return [
        sim_program_unit(
            _merging_program,
            {
                "n_threads": _OVERSUB_CORES * ratio,
                "total_updates": _OVERSUB_UPDATES,
                "merge_elements": _OVERSUB_MERGE_ELEMENTS,
            },
            cfg,
            label=f"oversub-{ratio}x",
        )
        for ratio in _OVERSUB_RATIOS
    ]


def run_oversubscription(units: list, payloads: dict) -> ExperimentReport:
    """Merging-phase behaviour when threads outnumber cores 1x..4x."""
    report = ExperimentReport(
        "ext-oversubscription-sweep",
        "Fixed work on a round-robin scheduler, threads/cores 1x..4x",
    )
    rows = [payloads[u.key] for u in units]
    t = TextTable(
        title=(
            f"{_OVERSUB_UPDATES} updates on {_OVERSUB_CORES} cores, "
            f"quantum={_OVERSUB_QUANTUM}"
        ),
        columns=[
            "threads/cores", "threads", "cycles", "vs 1x", "merge span",
            "preempt", "migrate", "queue wait",
        ],
    )
    base_cycles = rows[0]["total_cycles"]
    for ratio, row in zip(_OVERSUB_RATIOS, rows):
        t.add_row([
            f"{ratio}x",
            _OVERSUB_CORES * ratio,
            row["total_cycles"],
            f"{row['total_cycles'] / base_cycles:.2f}x",
            row["reduction_span_cycles"],
            row["preemptions"],
            row["migrations"],
            row["involuntary_wait_cycles"],
        ])
    report.add_table(t)
    worst = max(rows, key=lambda r: r["total_cycles"])
    report.add_comparison(PaperComparison(
        claim="oversubscription never beats one thread per core on fixed work",
        paper_value="outside the paper's one-thread-per-core design space",
        measured_value=(
            f"1x: {base_cycles:,} cycles; worst ratio: "
            f"{worst['total_cycles']:,}"
        ),
        qualitative=True,
        claim_holds=all(r["total_cycles"] >= base_cycles for r in rows),
    ))
    merge_growth = (
        rows[-1]["reduction_span_cycles"]
        / max(1, rows[0]["reduction_span_cycles"])
    )
    report.add_comparison(PaperComparison(
        claim="the merge grows with the thread count, not the core count",
        paper_value="merge work is x*p (Algorithm 1)",
        measured_value=(f"{merge_growth:.1f}x merge span at "
                        f"{_OVERSUB_RATIOS[-1]}x threads"),
        qualitative=True,
        claim_holds=merge_growth > 1.5,
    ))
    report.raw.update(
        ratios=list(_OVERSUB_RATIOS),
        cycles=[r["total_cycles"] for r in rows],
        preemptions=[r["preemptions"] for r in rows],
        involuntary_wait=[r["involuntary_wait_cycles"] for r in rows],
    )
    return report


# ── ext-acmp-merge-policy ─────────────────────────────────────────────────

_POLICIES = ("first-come", "reduction-owns-big", "migrate-on-phase")
# the ACMP: one big core of this many BCEs plus small ones, one thread each
_ACMP_RL = 4
_ACMP_N_SMALL = 3
_ACMP_WORK = 1500
_ACMP_MERGE_ELEMENTS = 64
_ACMP_QUANTUM = 2000
_ACMP_MIGRATION_COST = 25


def declare_units_acmp_policy() -> list:
    """The same merge program under each big-core ownership policy."""
    return [
        sim_program_unit(
            _acmp_merge_program,
            {
                "n_threads": _ACMP_N_SMALL + 1,
                "work": _ACMP_WORK,
                "merge_elements": _ACMP_MERGE_ELEMENTS,
            },
            replace(
                MachineConfig.asymmetric(rl=_ACMP_RL, n_small=_ACMP_N_SMALL),
                scheduler="acmp",
                acmp_policy=policy,
                quantum=_ACMP_QUANTUM,
                migration_cost=_ACMP_MIGRATION_COST,
            ),
            label=f"acmp-{policy}",
        )
        for policy in _POLICIES
    ]


def run_acmp_policy(units: list, payloads: dict) -> ExperimentReport:
    """Who gets the big core during the merge on an ACMP?"""
    report = ExperimentReport(
        "ext-acmp-merge-policy",
        f"Big-core ownership during the merge (rl={_ACMP_RL}, "
        f"{_ACMP_N_SMALL} small cores)",
    )
    rows = dict(zip(_POLICIES, (payloads[u.key] for u in units)))
    t = TextTable(
        title=f"merge thread = last tid; big core = core 0 ({_ACMP_RL}-BCE)",
        columns=[
            "policy", "cycles", "merge busy", "merge span", "preempt",
            "migrate",
        ],
    )
    for policy in _POLICIES:
        row = rows[policy]
        t.add_row([
            policy,
            row["total_cycles"],
            row["reduction_cycles"],
            row["reduction_span_cycles"],
            row["preemptions"],
            row["migrations"],
        ])
    report.add_table(t)
    fc = rows["first-come"]
    best_aware = min(
        rows["reduction-owns-big"]["reduction_cycles"],
        rows["migrate-on-phase"]["reduction_cycles"],
    )
    report.add_comparison(PaperComparison(
        claim="merge-aware policies execute the reduction on the big core",
        paper_value="the ACMP rationale: serial sections deserve the big core",
        measured_value=(
            f"merge busy {best_aware:,} cycles (aware) vs "
            f"{fc['reduction_cycles']:,} (first-come leaves it on a "
            "small core)"
        ),
        qualitative=True,
        claim_holds=best_aware < fc["reduction_cycles"],
    ))
    report.add_comparison(PaperComparison(
        claim="migrate-on-phase pays for the big core with migrations",
        paper_value="migration is not free (configured cost per move)",
        measured_value=(
            f"{rows['migrate-on-phase']['migrations']} migrations vs "
            f"{fc['migrations']} under first-come"
        ),
        qualitative=True,
        claim_holds=rows["migrate-on-phase"]["migrations"] > fc["migrations"],
    ))
    report.raw.update({p: rows[p] for p in _POLICIES})
    return report


# ── ext-priority-inversion-reduction ──────────────────────────────────────


# the quantum sweep, on a round-robin machine of this many cores that
# runs reducers and spinners, one thread each
_PI_QUANTA = (150, 600, 4800)
_PI_CORES = 2
_PI_REDUCERS = 3
_PI_SPINNERS = 3
_PI_UPDATES = 400
_PI_MERGE_ELEMENTS = 64


def declare_units_priority_inversion() -> list:
    """The same locked merge under each quantum."""
    return [
        sim_program_unit(
            _locked_merge_program,
            {
                "n_reducers": _PI_REDUCERS,
                "n_spinners": _PI_SPINNERS,
                "updates": _PI_UPDATES,
                "merge_elements": _PI_MERGE_ELEMENTS,
            },
            replace(
                MachineConfig.baseline(n_cores=_PI_CORES),
                scheduler="round-robin",
                quantum=quantum,
            ),
            label=f"pi-quantum-{quantum}",
        )
        for quantum in _PI_QUANTA
    ]


def run_priority_inversion(units: list, payloads: dict) -> ExperimentReport:
    """A preempted lock-holder stalls the whole reduction."""
    report = ExperimentReport(
        "ext-priority-inversion-reduction",
        "Locked merge vs quantum on an oversubscribed round-robin machine",
    )
    rows = [payloads[u.key] for u in units]
    t = TextTable(
        title=(
            f"{_PI_REDUCERS} reducers + {_PI_SPINNERS} spinners on "
            f"{_PI_CORES} cores"
        ),
        columns=[
            "quantum", "cycles", "merge wait", "preempt", "queue wait",
        ],
    )
    for quantum, row in zip(_PI_QUANTA, rows):
        t.add_row([
            quantum,
            row["total_cycles"],
            row["reduction_wait_cycles"],
            row["preemptions"],
            row["involuntary_wait_cycles"],
        ])
    report.add_table(t)
    small, large = rows[0], rows[-1]
    report.add_comparison(PaperComparison(
        claim="without priorities the merge inherits the spinners' "
              "schedule: a woken lock-holder re-queues FIFO behind "
              "background threads, so the merge stall grows with the "
              "quantum",
        paper_value="priority inversion on the merge path",
        measured_value=(
            f"{large['reduction_wait_cycles']:,} merge-wait cycles at "
            f"quantum={_PI_QUANTA[-1]} vs {small['reduction_wait_cycles']:,} at "
            f"quantum={_PI_QUANTA[0]}"
        ),
        qualitative=True,
        claim_holds=(
            large["reduction_wait_cycles"] > small["reduction_wait_cycles"]
        ),
    ))
    report.add_comparison(PaperComparison(
        claim="larger quanta preempt less",
        paper_value="quantum expiry is the only involuntary switch here",
        measured_value=(
            f"{small['preemptions']} -> {large['preemptions']} preemptions"
        ),
        qualitative=True,
        claim_holds=small["preemptions"] > large["preemptions"],
    ))
    report.raw.update(
        quanta=list(_PI_QUANTA),
        cycles=[r["total_cycles"] for r in rows],
        reduction_wait=[r["reduction_wait_cycles"] for r in rows],
        preemptions=[r["preemptions"] for r in rows],
    )
    return report


SPECS = (
    ExperimentSpec("ext-oversubscription-sweep", run_oversubscription,
                   declare_units_oversubscription),
    ExperimentSpec("ext-acmp-merge-policy", run_acmp_policy,
                   declare_units_acmp_policy),
    ExperimentSpec("ext-priority-inversion-reduction", run_priority_inversion,
                   declare_units_priority_inversion),
)
