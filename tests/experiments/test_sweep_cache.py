"""Property tests for the two-tier simulation sweep cache.

Covers the on-disk :class:`~repro.experiments.store.SweepStore` and its
integration in :mod:`repro.pipeline.runtime`: round-trips restore an
equal ``PhaseBreakdown``, any configuration change changes the key (no
stale hits), and corrupt, truncated or malformed cache entries behave as
misses, never as crashes.
"""

import json
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import engine, pipeline
from repro.experiments.store import SweepStore
from repro.pipeline import simulate_breakdowns
from repro.simx import MachineConfig
from repro.pipeline.builders import sim_point_unit
from repro.workloads import (
    FuzzyCMeansWorkload,
    HopWorkload,
    KMeansWorkload,
    default_workloads,
    make_blobs,
    make_particles,
)

payloads = st.dictionaries(
    st.text(min_size=1, max_size=12),
    st.one_of(
        st.integers(min_value=-(2**40), max_value=2**40),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=20),
        st.booleans(),
        st.none(),
    ),
    max_size=6,
)


@pytest.fixture
def store(tmp_path):
    return SweepStore(tmp_path / "sweeps")


@pytest.fixture
def isolated_store(tmp_path):
    """Point the pipeline at a fresh disk store; restore the suite's after."""
    saved = pipeline.get_disk_store()
    pipeline.set_disk_store(tmp_path / "sweeps")
    yield pipeline.get_disk_store()
    pipeline.set_disk_store(saved)


class TestSweepStoreRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(payload=payloads)
    def test_round_trip_returns_equal_payload(self, tmp_path_factory, payload):
        store = SweepStore(tmp_path_factory.mktemp("rt"))
        key = store.key_for({"case": "round-trip"})
        store.put(key, payload)
        assert store.get(key) == payload

    def test_missing_key_is_none(self, store):
        assert store.get(store.key_for({"never": "stored"})) is None

    def test_len_and_clear(self, store):
        for i in range(3):
            store.put(store.key_for({"i": i}), {"v": i})
        assert len(store) == 3
        store.clear()
        assert len(store) == 0
        assert store.get(store.key_for({"i": 0})) is None

    def test_put_overwrites_atomically(self, store):
        key = store.key_for({"x": 1})
        store.put(key, {"v": 1})
        store.put(key, {"v": 2})
        assert store.get(key) == {"v": 2}
        assert len(store) == 1

    def test_unserialisable_payload_never_raises(self, store):
        """The "a failed write never raises" contract must cover
        ``json.dumps`` failures, not just OS errors (regression: a
        TypeError used to escape ``put``)."""
        key = store.key_for({"x": "bad"})
        assert store.put(key, {"v": object()}) is None
        assert store.put(key, {"v": {1, 2}}) is None  # sets aren't JSON
        assert store.get(key) is None
        # no half-written temp files left behind
        assert not list(store.root.glob("*.tmp"))
        # the store still works for good payloads afterwards
        assert store.put(key, {"v": 1}) is not None
        assert store.get(key) == {"v": 1}


class TestKeySensitivity:
    def test_key_is_deterministic(self, store):
        desc = {"workload": {"name": "kmeans", "size": 500}, "threads": 4}
        assert store.key_for(desc) == store.key_for(dict(desc))

    def test_key_ignores_dict_order(self, store):
        a = store.key_for({"a": 1, "b": 2})
        b = store.key_for({"b": 2, "a": 1})
        assert a == b

    @settings(max_examples=40, deadline=None)
    @given(
        threads=st.integers(min_value=1, max_value=64),
        other=st.integers(min_value=1, max_value=64),
    )
    def test_changed_field_changes_key(self, threads, other):
        base = {"workload": "kmeans", "threads": threads}
        changed = {"workload": "kmeans", "threads": other}
        assert (SweepStore.key_for(base) == SweepStore.key_for(changed)) == (
            threads == other
        )

    def test_machine_config_changes_key(self, store):
        cfg = MachineConfig.baseline(n_cores=4)
        variants = [
            replace(cfg, coherence_protocol="msi"),
            replace(cfg, interconnect="mesh"),
            replace(cfg, dram="banked"),
            replace(cfg, batch_path=False),
            MachineConfig.baseline(n_cores=8),
        ]
        keys = {store.key_for({"machine": asdict(c)}) for c in [cfg, *variants]}
        assert len(keys) == len(variants) + 1  # all distinct

    @pytest.mark.parametrize("make,knob,value", [
        (lambda: KMeansWorkload(make_blobs(200, 3, 4, seed=1)), "init", "kmeans++"),
        (lambda: FuzzyCMeansWorkload(make_blobs(200, 3, 4, seed=1)), "init", "kmeans++"),
        (lambda: FuzzyCMeansWorkload(make_blobs(200, 3, 4, seed=1)), "fuzziness", 3.0),
        (lambda: HopWorkload(make_particles(300, seed=1)),
         "density_threshold_quantile", 0.5),
    ], ids=["kmeans-init", "fuzzy-init", "fuzzy-fuzziness", "hop-quantile"])
    def test_every_workload_knob_changes_key(self, make, knob, value):
        cfg = MachineConfig.baseline(n_cores=4)
        base, changed = make(), make()
        setattr(changed, knob, value)
        assert sim_point_unit(base, 2, 2, cfg).key != sim_point_unit(changed, 2, 2, cfg).key

    def test_sim_version_changes_key(self, store):
        a = store.key_for({"sim_version": 1, "w": "kmeans"})
        b = store.key_for({"sim_version": 2, "w": "kmeans"})
        assert a != b


class TestCorruptEntriesAreMisses:
    def test_truncated_file_is_a_miss(self, store):
        key = store.key_for({"x": 1})
        store.put(key, {"v": 1})
        path = store.path_for(key)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert store.get(key) is None

    def test_garbage_bytes_are_a_miss(self, store):
        key = store.key_for({"x": 2})
        store.path_for(key).parent.mkdir(parents=True, exist_ok=True)
        store.path_for(key).write_bytes(b"\x00\xff not json \xfe")
        assert store.get(key) is None

    def test_wrong_schema_version_is_a_miss(self, store):
        key = store.key_for({"x": 3})
        store.put(key, {"v": 3})
        raw = json.loads(store.path_for(key).read_text())
        raw["schema"] = 999
        store.path_for(key).write_text(json.dumps(raw))
        assert store.get(key) is None

    def test_key_mismatch_is_a_miss(self, store):
        # an entry copied under the wrong filename must not satisfy a lookup
        key_a, key_b = store.key_for({"x": "a"}), store.key_for({"x": "b"})
        store.put(key_a, {"v": "a"})
        store.path_for(key_b).parent.mkdir(parents=True, exist_ok=True)
        store.path_for(key_b).write_text(store.path_for(key_a).read_text())
        assert store.get(key_b) is None

    def test_unreadable_directory_is_empty_not_crash(self, tmp_path):
        store = SweepStore(tmp_path / "never-created")
        assert len(store) == 0
        assert store.get(store.key_for({"x": 1})) is None
        store.clear()  # no-op, no crash


def _settle(*args, **kwargs):
    """``simulate_breakdowns`` in a session of its own: the breakdowns and
    the session's account of which tier settled each unit."""
    with engine.session(1) as sess:
        out = simulate_breakdowns(*args, **kwargs)
    return out, sess.stats


class TestSimsweepDiskTier:
    def _workload(self):
        return default_workloads(0.03)["kmeans"]

    def test_disk_hit_restores_equal_breakdown(self, isolated_store):
        wl = self._workload()
        a = simulate_breakdowns(wl, (1,), n_cores=2, mem_scale=8)
        b, stats = _settle(wl, (1,), n_cores=2, mem_scale=8)
        assert stats["cache_hits"] == 1
        assert stats["executed"] == 0  # served, not re-simulated
        assert asdict(a[1]) == asdict(b[1])

    def test_corrupt_disk_entry_falls_back_to_simulation(self, isolated_store):
        wl = self._workload()
        a = simulate_breakdowns(wl, (1,), n_cores=2, mem_scale=8)
        for f in isolated_store.root.glob("*.json"):
            f.write_text("{ truncated")
        b, stats = _settle(wl, (1,), n_cores=2, mem_scale=8)
        assert (stats["cache_hits"], stats["executed"]) == (0, 1)  # re-simulated
        assert asdict(a[1]) == asdict(b[1])

    def test_clear_cache_clears_disk_tier(self, isolated_store):
        wl = self._workload()
        simulate_breakdowns(wl, (1,), n_cores=2, mem_scale=8)
        assert len(isolated_store) == 1
        isolated_store.clear()
        assert len(isolated_store) == 0
        _, stats = _settle(wl, (1,), n_cores=2, mem_scale=8)
        assert (stats["cache_hits"], stats["executed"]) == (0, 1)  # nothing survived

    def test_disabled_disk_tier_still_simulates(self, isolated_store):
        pipeline.set_disk_store(None)
        wl = self._workload()
        out = simulate_breakdowns(wl, (1,), n_cores=2, mem_scale=8)
        assert out[1].total > 0
        assert len(isolated_store) == 0

    def test_kmeanspp_init_gets_its_own_breakdown(self, isolated_store):
        ds = make_blobs(400, 4, 6, seed=3)
        random_init = KMeansWorkload(ds, init="random")
        plusplus = KMeansWorkload(ds, init="kmeans++")
        # the two inits converge after different iteration counts ...
        assert random_init.execute(1).n_iterations != plusplus.execute(1).n_iterations
        a = simulate_breakdowns(random_init, (2,), n_cores=2, mem_scale=8)
        b, stats = _settle(plusplus, (2,), n_cores=2, mem_scale=8)
        # ... so each is simulated, and their breakdowns differ
        assert (stats["cache_hits"], stats["executed"]) == (0, 1)
        assert len(isolated_store) == 2
        assert asdict(a[2]) != asdict(b[2])

    def test_machine_config_is_part_of_the_memo_key(self, isolated_store):
        wl = self._workload()
        simulate_breakdowns(
            wl, (1,), n_cores=2, mem_scale=8,
            config=MachineConfig.baseline(n_cores=2),
        )
        _, stats = _settle(
            wl, (1,), n_cores=2, mem_scale=8,
            config=replace(MachineConfig.baseline(n_cores=2), coherence_protocol="msi"),
        )
        assert (stats["cache_hits"], stats["executed"]) == (0, 1)  # no cross-config hit
        assert len(isolated_store) == 2


class TestMalformedPayloadIsAMiss:
    """A stored entry that is well formed on disk but does not decode as a
    breakdown reads as a miss and re-executes, for every breakdown kind."""

    def _assert_reexecutes(self, store, unit):
        payload = pipeline.resolve_units([unit])[unit.key]
        good = pipeline.breakdown_from_payload(payload)
        broken = {k: v for k, v in payload.items() if k != "serial"}
        store.put(unit.key, broken)
        assert store.get(unit.key) == broken  # a valid envelope
        with engine.session(1) as sess:
            again = pipeline.resolve_units([unit])[unit.key]
        assert (sess.stats["cache_hits"], sess.stats["executed"]) == (0, 1)
        assert pipeline.breakdown_from_payload(again) == good
        assert store.get(unit.key) == payload  # repaired on the way

    def test_sweep_point(self, isolated_store):
        wl = default_workloads(0.03)["kmeans"]
        [unit] = pipeline.sim_sweep_units(wl, (1,), n_cores=2, mem_scale=8)
        self._assert_reexecutes(isolated_store, unit)

    def test_hardware_model(self, isolated_store):
        wl = default_workloads(0.03)["kmeans"]
        [unit] = pipeline.hardware_model_units(wl, (2,))
        self._assert_reexecutes(isolated_store, unit)
