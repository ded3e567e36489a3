"""Registry option validation, descriptions, and sweep declarations."""

import inspect

import pytest

from repro.experiments.registry import (
    EXPERIMENTS,
    SPECS,
    declare_units,
    describe_experiment,
    listing,
    run_experiment,
    validate_options,
)

#: the options some interface passes: ``repro run``/``runall`` set
#: ``scale`` and ``thread_counts``, serve's ``/v1/report`` also ``n``
INTERFACE_OPTIONS = {"scale", "thread_counts", "n"}
#: ``scripts/run_full_scale.py`` also sets ``mem_scale``, for these only
MEM_SCALE_EXPERIMENTS = {"table2", "fig2"}


class TestOptionValidation:
    def test_unknown_option_is_named_in_the_error(self):
        with pytest.raises(TypeError, match=r"fig4.*'bogus'"):
            run_experiment("fig4", bogus=1)

    def test_driver_map_validates_options_too(self):
        with pytest.raises(TypeError, match=r"fig4.*'bogus'"):
            EXPERIMENTS["fig4"](bogus=1)

    def test_error_lists_accepted_options(self):
        with pytest.raises(TypeError, match=r"accepted: .*\bn\b"):
            run_experiment("fig4", scale=0.1)

    def test_fig2_has_no_hardware_backend_option(self):
        # Fig 2(c) runs on the deterministic hardware model only
        with pytest.raises(TypeError, match=r"fig2.*'hardware_backend'"):
            run_experiment("fig2", hardware_backend="process")

    def test_known_option_is_forwarded(self):
        report = run_experiment("fig4", n=256)
        assert report.experiment_id == "fig4"

    def test_validate_options_accepts_known(self):
        validate_options("table2", {"scale": 0.1, "thread_counts": (1, 2)})

    def test_validate_options_unknown_experiment(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            validate_options("nope", {})


def _option_parameters(spec) -> list:
    """The driver's parameters after a declaring driver's units and
    payloads, which come first."""
    params = list(inspect.signature(spec.assemble).parameters.values())
    if not spec.declares_units:
        return params
    assert [p.name for p in params[:2]] == ["units", "payloads"], spec.experiment_id
    return params[2:]


class TestInterfaceOptions:
    def test_driver_parameters_are_interface_options(self):
        """A driver takes only options some interface passes, each with a
        default; any other setting is a module constant."""
        offenders = {}
        for eid, spec in SPECS.items():
            allowed = INTERFACE_OPTIONS | (
                {"mem_scale"} if eid in MEM_SCALE_EXPERIMENTS else set())
            params = _option_parameters(spec)
            extra = [p.name for p in params if p.name not in allowed]
            if extra:
                offenders[eid] = extra
            for p in params:
                assert p.default is not inspect.Parameter.empty, (
                    f"{eid}: option {p.name!r} has no default")
        n = sum(map(len, offenders.values()))
        assert not offenders, (
            f"{n} driver parameter(s) in {len(offenders)} experiment(s) "
            f"that no interface passes: {offenders}")

    def test_listing_names_every_driver_option(self):
        for entry in listing():
            params = _option_parameters(SPECS[entry["id"]])
            assert isinstance(entry["options"], list), entry["id"]
            assert entry["options"] == sorted(p.name for p in params), entry["id"]


class TestDescriptions:
    def test_every_experiment_has_a_description(self):
        for eid in EXPERIMENTS:
            desc = describe_experiment(eid)
            assert desc, f"{eid} has no description"
            assert "\n" not in desc

    def test_description_is_the_docstring_headline(self):
        assert "Table II" in describe_experiment("table2")


class TestDeclarations:
    def test_experiments_without_sweeps_declare_nothing(self):
        assert declare_units("table3") == []

    def test_model_grids_declare_no_units(self):
        # their closed-form grids evaluate in assemble, in milliseconds
        for eid in ("fig4", "fig5", "conclusions"):
            assert declare_units(eid) == [], eid

    def test_declared_units_match_driver_defaults(self):
        units = declare_units("table2", scale=0.03, thread_counts=(1, 2))
        assert len(units) == 6  # 3 workloads x 2 thread counts
        assert len({u.key for u in units}) == 6
        assert all(u.kind == "sweep-point" for u in units)

    def test_declarers_drop_options_they_do_not_understand(self):
        # fig2 declares the sim sweep (3 workloads x 2 thread counts) plus
        # hardware-model runs at panel (c)'s four thread counts (3
        # workloads x 4); `hardware_backend` means nothing to the driver
        # and is dropped rather than rejected.
        units = declare_units(
            "fig2", scale=0.03, thread_counts=(1, 2), hardware_backend="model"
        )
        assert len(units) == 18
        assert sum(u.kind == "sweep-point" for u in units) == 6
        assert sum(u.kind == "hardware-model" for u in units) == 12

    def test_scheduler_specs_are_registered_and_declare_units(self):
        # one unit per sweep point, all simulator programs, distinct keys
        for eid, expect in (("ext-oversubscription-sweep", 4),
                            ("ext-acmp-merge-policy", 3),
                            ("ext-priority-inversion-reduction", 3)):
            assert eid in EXPERIMENTS, eid
            units = declare_units(eid)
            assert len(units) == expect, eid
            assert all(u.kind == "sim-program" for u in units), eid
            assert len({u.key for u in units}) == expect, eid
