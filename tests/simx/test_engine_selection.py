"""Which engine ``Machine.run`` picks for a configuration.

The machine shapes ``repro runall`` builds (the Table I baseline on a bus
and on a mesh, the asymmetric CMP, the MSI ablation) must run on the
lockstep batch engine; every configuration whose state couples the
threads' op order must run on the op-at-a-time reference engine.  A gate
change that silently moved the experiments back to the reference engine
would keep every result identical and only show up as a slower
``runall``, so this pins the choice itself.
"""

from dataclasses import replace

import pytest

from repro.simx import (
    Barrier,
    Compute,
    Load,
    Machine,
    MachineConfig,
    Store,
    ThreadTrace,
    TraceProgram,
)

_BASE = MachineConfig.baseline(n_cores=4)

#: name -> (config, engine Machine.run must pick)
CASES = {
    "baseline-bus": (_BASE, "batch"),
    "baseline-mesh": (MachineConfig.baseline(4, interconnect="mesh"), "batch"),
    "asymmetric": (MachineConfig.asymmetric(rl=4, n_small=3), "batch"),
    "msi": (replace(_BASE, coherence_protocol="msi"), "batch"),
    "banked-dram": (replace(_BASE, dram="banked"), "reference"),
    "contended-bus": (replace(_BASE, bus_occupancy=2), "reference"),
    "round-robin": (replace(_BASE, scheduler="round-robin"), "reference"),
    "knob-off": (replace(_BASE, batch_path=False), "reference"),
}


def _program() -> TraceProgram:
    """Private streams, a shared line and a barrier on two threads."""
    threads = []
    for tid in range(2):
        base = (0x1000 + tid * 0x100) * 64
        ops = [Compute(50)]
        ops += [Load(base + i * 64) for i in range(8)]
        ops += [Store(0), Barrier(0), Load(0)]
        threads.append(ThreadTrace(tid, ops))
    return TraceProgram("selection", threads)


@pytest.mark.parametrize("name", CASES)
def test_engine_selection(name):
    config, engine = CASES[name]
    result = Machine(config).run(_program())
    assert result.engine == engine
