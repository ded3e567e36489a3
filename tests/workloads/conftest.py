"""Test-only helpers over a :class:`~repro.workloads.base.WorkloadExecution`.

``serial_instruction_fraction`` is a quick, machine-independent estimate
of a workload's serial share ``s`` that the workload tests check against
the paper's characterisation; the simulator-backed reports measure ``s``
instead, so nothing outside the tests needs it.  ``fresh_numerics`` gives
one test an empty numerics memo, so it can count canonical runs.
"""

from collections import OrderedDict

import pytest

from repro.workloads import base
from repro.workloads.base import SERIAL_PHASES, WorkloadExecution


@pytest.fixture
def fresh_numerics(monkeypatch) -> OrderedDict:
    """An empty per-process numerics memo for one test; the process's own
    memo comes back afterwards."""
    memo: OrderedDict = OrderedDict()
    monkeypatch.setattr(base, "_NUMERICS", memo)
    return memo


def instructions_by_phase(ex: WorkloadExecution) -> dict[str, int]:
    """Total instructions aggregated per phase name."""
    out: dict[str, int] = {}
    for w in ex.phases:
        out[w.phase] = out.get(w.phase, 0) + sum(w.per_thread_instructions)
    return out


def serial_instruction_fraction(ex: WorkloadExecution) -> float:
    """Share of total instructions in serial phases — a quick
    (machine-independent) estimate of ``s``."""
    by_phase = instructions_by_phase(ex)
    total = sum(by_phase.values())
    if total == 0:
        return 0.0
    serial = sum(by_phase.get(p, 0) for p in SERIAL_PHASES)
    return serial / total
