"""Cross-cutting integration tests: every workload through the full
measure → extract → predict pipeline, on both measurement substrates."""

import numpy as np
import pytest

from repro.core import measured as mm
from repro.core import merging
from repro.hardware.executor import execute_workload
from repro.simx import Machine, MachineConfig
from repro.workloads import (
    FuzzyCMeansWorkload,
    HistogramWorkload,
    HopWorkload,
    KMeansWorkload,
    make_blobs,
    make_particles,
)
from repro.workloads.instrument import (
    breakdown_from_simulation,
    extract_parameters,
    serial_growth_curve,
    speedup_curve,
)
from repro.workloads.tracegen import program_from_execution

THREADS = (1, 2, 4, 8)


def all_workloads():
    return {
        "kmeans": KMeansWorkload(
            make_blobs(1200, 6, 4, seed=4), max_iterations=3, tolerance=1e-12
        ),
        "fuzzy": FuzzyCMeansWorkload(
            make_blobs(900, 6, 4, seed=5), max_iterations=2, tolerance=1e-12
        ),
        "hop": HopWorkload(
            make_particles(1200, n_halos=8, seed=6), n_neighbors=10
        ),
        "histogram": HistogramWorkload(n_items=8000, n_bins=512, seed=7),
    }


@pytest.fixture(scope="module")
def sim_breakdowns():
    machine = Machine(MachineConfig.baseline(n_cores=8))
    out = {}
    for name, wl in all_workloads().items():
        out[name] = {
            p: breakdown_from_simulation(
                machine.run(program_from_execution(wl.execute(p), mem_scale=4))
            )
            for p in THREADS
        }
    return out


class TestSimulatorPipeline:
    def test_all_workloads_speed_up(self, sim_breakdowns):
        # histogram is merge-dominated by design, so its ceiling is lower
        floors = {"kmeans": 3.0, "fuzzy": 3.0, "hop": 3.0, "histogram": 1.8}
        for name, b in sim_breakdowns.items():
            sp = speedup_curve(b)
            assert sp[8] > floors[name], name

    def test_all_serial_sections_grow(self, sim_breakdowns):
        for name, b in sim_breakdowns.items():
            growth = serial_growth_curve(b)
            assert growth[8] > growth[1], name

    def test_extraction_valid_for_every_workload(self, sim_breakdowns):
        for name, b in sim_breakdowns.items():
            ep = extract_parameters(b, name)
            assert 0 < ep.serial_pct < 50, name
            assert 0 <= ep.fcon_share <= 1, name
            assert abs(ep.fcon_share + ep.fred_share - 1) < 1e-9, name
            assert ep.fored_rel >= 0, name

    def test_prediction_roundtrip(self, sim_breakdowns):
        """The extracted record must reproduce the measured serial growth
        it was fitted from (Fig 2(d)'s accuracy question)."""
        for name, b in sim_breakdowns.items():
            ep = extract_parameters(b, name)
            mp = ep.to_measured_params()
            measured_growth = serial_growth_curve(b)
            for p in (2, 4, 8):
                predicted = float(mm.serial_time_normalised(mp, p))
                assert predicted == pytest.approx(measured_growth[p], rel=0.35), (
                    name, p
                )

    def test_design_recommendation_is_finite_and_sane(self, sim_breakdowns):
        for name, b in sim_breakdowns.items():
            params = extract_parameters(b, name).to_measured_params().to_design_params()
            best = merging.best_symmetric(params, 256)
            assert 1.0 <= best.r <= 256.0
            assert 1.0 < best.speedup <= 256.0


class TestHardwareModelPipeline:
    def test_hardware_and_simulator_agree_qualitatively(self, sim_breakdowns):
        for name, wl in all_workloads().items():
            hw = execute_workload(wl, THREADS)
            hw_growth = serial_growth_curve(hw)
            sim_growth = serial_growth_curve(sim_breakdowns[name])
            # both substrates show growing serial sections
            assert hw_growth[8] > 1.1, name
            assert sim_growth[8] > 1.1, name

    def test_histogram_is_most_merge_bound(self, sim_breakdowns):
        shares = {
            name: extract_parameters(b, name).fred_share
            for name, b in sim_breakdowns.items()
        }
        assert shares["histogram"] == max(shares.values())


class TestNumericConsistency:
    def test_workload_outputs_thread_invariant(self):
        for name, wl in all_workloads().items():
            out1 = wl.execute(1).outputs
            out8 = wl.execute(8).outputs
            key = {
                "kmeans": "centers", "fuzzy": "centers",
                "hop": "groups", "histogram": "histogram",
            }[name]
            assert np.allclose(
                np.asarray(out1[key], dtype=float),
                np.asarray(out8[key], dtype=float),
                atol=1e-7,
            ), name
