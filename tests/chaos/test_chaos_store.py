"""Store-level fault injection through a real engine session.

Two failure modes the crash-safety contract covers:

* a **corrupted** sweep-store entry must read as a miss and cost exactly
  one re-execution — never an error, never a poisoned result;
* **lost cache writes** (FlakyStore dropping every put) must not matter
  for resumability: the write-ahead journal alone carries the run.
"""

from tests.chaos.injectors import Chaos, FlakyStore, corrupt_store_entry
from repro.engine.journal import RunJournal
from repro.engine.scheduler import EngineSession
from repro.engine.units import WorkUnit, register_executor
from repro.experiments.store import SweepStore

EXECUTIONS = []


def _tracked(spec):
    EXECUTIONS.append(spec[0])
    return {"value": spec[0] * 10}


register_executor("cs-tracked", _tracked)


def units(n):
    return [
        WorkUnit(kind="cs-tracked", key=f"cs-k{i}", spec=(i,), label=f"cs-k{i}")
        for i in range(n)
    ]


def store_hooks(store):
    """cache_get/cache_put wired to a (possibly flaky) sweep store."""
    return {
        "cache_get": lambda u: store.get(u.key),
        "cache_put": lambda u, p: store.put(u.key, p),
    }


class TestCorruptedStoreEntry:
    def test_only_the_corrupt_unit_reexecutes(self, tmp_path):
        store = SweepStore(tmp_path / "sweeps")
        batch = units(5)
        EXECUTIONS.clear()
        with EngineSession(1) as warm:
            warm.run_units(batch, **store_hooks(store))
        assert len(EXECUTIONS) == 5

        victim = Chaos(seed=42).pick([u.key for u in batch])
        corrupt_store_entry(store, victim, mode="garbage", seed=42)

        EXECUTIONS.clear()
        with EngineSession(1) as rerun:
            results = rerun.run_units(batch, **store_hooks(store))
        assert len(EXECUTIONS) == 1  # exactly the corrupted entry
        assert rerun.stats["cache_hits"] == 4
        assert results == {f"cs-k{i}": {"value": i * 10} for i in range(5)}

    def test_truncated_entry_also_reads_as_miss(self, tmp_path):
        store = SweepStore(tmp_path / "sweeps")
        batch = units(3)
        with EngineSession(1) as warm:
            warm.run_units(batch, **store_hooks(store))
        corrupt_store_entry(store, batch[0].key, mode="truncate", seed=1)
        EXECUTIONS.clear()
        with EngineSession(1) as rerun:
            results = rerun.run_units(batch, **store_hooks(store))
        assert EXECUTIONS == [0]
        assert results[batch[0].key] == {"value": 0}


class TestLostCacheWrites:
    def test_journal_alone_makes_the_run_resumable(self, tmp_path):
        """Every cache write fails (disk full); the journal still has it."""
        flaky = FlakyStore(SweepStore(tmp_path / "sweeps"), fail_all=True)
        batch = units(4)
        EXECUTIONS.clear()
        journal = RunJournal(tmp_path / "j.jsonl", run_id="r")
        with EngineSession(1, journal=journal, run_id="r") as first:
            first.run_units(batch, **store_hooks(flaky))
        assert len(EXECUTIONS) == 4
        assert flaky.dropped >= 4  # the store kept nothing
        assert len(flaky) == 0

        EXECUTIONS.clear()
        journal2 = RunJournal(tmp_path / "j.jsonl", run_id="r")
        with EngineSession(1, journal=journal2, run_id="r") as resumed:
            results = resumed.run_units(batch, **store_hooks(flaky))
        assert EXECUTIONS == []  # nothing re-executed
        assert resumed.stats["journal_hits"] == 4
        assert results == {f"cs-k{i}": {"value": i * 10} for i in range(4)}

    def test_some_writes_lost_costs_nothing_on_resume(self, tmp_path):
        """Deterministically drop a seeded subset of puts; the journal
        still covers every settled unit."""
        chaos = Chaos(seed=9)
        flaky = FlakyStore(SweepStore(tmp_path / "sweeps"),
                           fail_puts=chaos.indices(6, 3))
        batch = units(6)
        journal = RunJournal(tmp_path / "j.jsonl", run_id="r")
        EXECUTIONS.clear()
        with EngineSession(1, journal=journal, run_id="r") as first:
            first.run_units(batch, **store_hooks(flaky))
        assert flaky.dropped == 3
        EXECUTIONS.clear()
        journal2 = RunJournal(tmp_path / "j.jsonl", run_id="r")
        with EngineSession(1, journal=journal2, run_id="r") as resumed:
            resumed.run_units(batch, **store_hooks(flaky))
        assert EXECUTIONS == []
        assert resumed.stats["journal_hits"] == 6
