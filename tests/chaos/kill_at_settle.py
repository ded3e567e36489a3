"""Run the ``repro`` CLI and SIGKILL it right after the N-th journal settle.

Usage::

    PYTHONPATH=src python tests/chaos/kill_at_settle.py N <repro argv...>
    PYTHONPATH=src python tests/chaos/kill_at_settle.py 3 run table2 --run-id x

:meth:`~repro.engine.journal.RunJournal.record` is wrapped so that once
it has newly journaled its N-th record in this process, the process
SIGKILLs itself.  The record's write has already returned by then, so
the journal is durable up to and including the fatal settle — the
harshest interruption point the resume path must recover from.  With
fewer than N settles the run completes normally and the exit code is
the CLI's own.
"""

from __future__ import annotations

import os
import signal
import sys

from repro import cli
from repro.engine.journal import RunJournal


def arm(n: int) -> None:
    """Make this process die by SIGKILL once ``n`` records are journaled."""
    if n < 1:
        raise ValueError(f"settle count must be >= 1, got {n}")
    record = RunJournal.record
    settled = 0

    def record_then_maybe_die(self, key, payload):
        nonlocal settled
        newly = record(self, key, payload)
        if newly:
            settled += 1
            if settled >= n:
                os.kill(os.getpid(), signal.SIGKILL)
        return newly

    RunJournal.record = record_then_maybe_die


def main(argv: "list[str]") -> int:
    if not argv:
        sys.exit(__doc__)
    arm(int(argv[0]))
    return cli.main(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
