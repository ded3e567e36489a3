"""Test-only helpers for the simulator's caches and coherence controller.

``check_invariants`` is the protocol-safety oracle the MESI/MSI and
coherence-oracle tests run after each op; ``valid_lines`` counts what an
L1 holds.  Nothing in the simulator itself needs either.
"""

from repro.simx.cache import Cache, MesiState
from repro.simx.coherence import CoherenceController


def check_invariants(ctrl: CoherenceController) -> None:
    """Assert protocol safety: single writer, no stale owners.

    * at most one L1 holds a line in M or E;
    * if any L1 holds M/E, no other L1 holds it in any valid state;
    * directory owner/sharers match actual cache contents.
    """
    seen_lines: set[int] = set()
    for l1 in ctrl.l1s:
        for s in l1._sets:
            seen_lines.update(
                la for la, ln in s.items() if ln.state is not MesiState.INVALID
            )
    for line in seen_lines:
        holders = {
            core: l1.lookup(line).state  # type: ignore[union-attr]
            for core, l1 in enumerate(ctrl.l1s)
            if l1.lookup(line) is not None
        }
        exclusive = [
            c for c, st in holders.items()
            if st in (MesiState.MODIFIED, MesiState.EXCLUSIVE)
        ]
        assert len(exclusive) <= 1, f"line {line:#x}: multiple owners {exclusive}"
        if exclusive:
            assert len(holders) == 1, (
                f"line {line:#x}: owner {exclusive[0]} coexists with sharers "
                f"{set(holders) - set(exclusive)}"
            )
            e = ctrl.directory.get(line)
            assert e is not None and e.owner == exclusive[0], (
                f"line {line:#x}: directory owner {e.owner if e else None} "
                f"!= actual {exclusive[0]}"
            )
        else:
            e = ctrl.directory.get(line)
            assert e is not None and set(holders) <= e.sharers, (
                f"line {line:#x}: sharers {set(holders)} not tracked by "
                f"directory {e.sharers if e else None}"
            )


def valid_lines(cache: Cache) -> int:
    """Number of resident valid lines."""
    return sum(
        1
        for s in cache._sets
        for line in s.values()
        if line.state is not MesiState.INVALID
    )
