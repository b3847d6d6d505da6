import copy
import dataclasses
import json
import math
import typing

import pytest
from conftest import mutate_json
from hypothesis import given, settings
from hypothesis import strategies as st

from fsosim.dynamics import AxisDisturbance, SinusoidComponent
from fsosim.scenario import (
    DEFAULTS,
    AptParams,
    Scenario,
    ScenarioError,
    default_scenario,
    load_scenario,
    resolve_scenario,
)


class TestDefaultsAndMerge:
    def test_minimal_document_resolves_to_defaults(self):
        sc = resolve_scenario({"schema_version": 1})
        assert sc.name == "unnamed"
        assert sc.distance_m == pytest.approx(1000.0, abs=0.5)
        assert sc.beam.wavelength_m == pytest.approx(1550e-9)
        assert sc.atmosphere.visibility_m == math.inf
        assert sc.fixed_loss_db is None
        assert sc.apt.fine1_enabled and sc.apt.fine2_enabled

    def test_partial_override_keeps_sibling_defaults(self):
        sc = resolve_scenario({"schema_version": 1, "beam": {"wavelength_nm": 1310.0}})
        assert sc.beam.wavelength_m == pytest.approx(1310e-9)
        assert sc.beam.waist_radius_m == pytest.approx(40.5e-3)

    def test_partial_node_override_merges_leaves(self):
        sc = resolve_scenario({"schema_version": 1, "nodes": {"b": {"altitude_m": 140.0}}})
        assert sc.node_b.altitude_m == 140.0
        assert sc.node_b.latitude_rad == pytest.approx(
            math.radians(DEFAULTS["nodes"]["b"]["latitude_deg"]))

    def test_default_scenario_helper(self):
        sc = default_scenario("bench")
        assert sc.name == "bench"


def _dataclasses_in(hint):
    """The dataclass types a field's type hint names, through unions and tuples."""
    if dataclasses.is_dataclass(hint):
        yield hint
    for arg in typing.get_args(hint):
        yield from _dataclasses_in(arg)


def test_no_spec_type_declares_a_default():
    # DEFAULTS is the one place a default is written: a field default in any
    # type a Scenario holds would be a second copy, free to drift from it
    seen, todo, defaulted = set(), [Scenario], []
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        defaulted += [f"{cls.__name__}.{f.name}" for f in dataclasses.fields(cls)
                      if f.default is not dataclasses.MISSING
                      or f.default_factory is not dataclasses.MISSING]
        for hint in typing.get_type_hints(cls).values():
            todo.extend(_dataclasses_in(hint))
    assert {AptParams, AxisDisturbance, SinusoidComponent} <= seen
    assert defaulted == []


class TestUnitConversions:
    def test_angles_scaled_to_radians(self):
        sc = resolve_scenario({"schema_version": 1})
        assert sc.apt.acquisition_bias_rad == pytest.approx(2000e-6)
        assert sc.apt.link_threshold_rad == pytest.approx(50e-6)
        assert sc.cmos0.fov_pitch_rad == pytest.approx(40e-3)
        assert sc.cmos1.fov_azimuth_rad == pytest.approx(1.3e-3)
        assert sc.cmos1.centroid_noise_rad == pytest.approx(3e-6)
        assert sc.fsm1.range_rad == pytest.approx(212e-6)
        assert sc.gimbal.azimuth_range_rad == pytest.approx(math.pi / 2)
        assert sc.gimbal.pitch_range_rad == pytest.approx(math.pi / 3)

    def test_pixel_pitch_follows_fov(self):
        sc = resolve_scenario({"schema_version": 1})
        assert sc.cmos0.pixel_pitch_pitch_rad == pytest.approx(40e-3 / 288)
        assert sc.cmos1.pixel_pitch_azimuth_rad == pytest.approx(1.3e-3 / 288)

    def test_visibility_km_to_m(self):
        sc = resolve_scenario({"schema_version": 1, "atmosphere": {"visibility_km": 5.0}})
        assert sc.atmosphere.visibility_m == 5000.0


class TestValidation:
    def reject(self, raw, fragment):
        with pytest.raises(ScenarioError) as err:
            resolve_scenario(raw)
        assert fragment in str(err.value)

    def test_schema_version_required(self):
        self.reject({}, "schema_version: missing required key")

    def test_schema_version_must_match(self):
        self.reject({"schema_version": 2}, "expected 1, got 2")

    def test_unknown_top_level_key(self):
        self.reject({"schema_version": 1, "bogus": 1}, "bogus: unknown key")

    def test_unknown_nested_key_has_dotted_path(self):
        self.reject({"schema_version": 1, "apt": {"bogus": 1}}, "apt.bogus: unknown key")
        self.reject({"schema_version": 1, "nodes": {"c": {}}}, "nodes.c")

    def test_flag_must_be_boolean(self):
        self.reject({"schema_version": 1, "apt": {"fine1_enabled": "yes"}},
                     "apt.fine1_enabled: expected true or false")

    def test_second_fine_stage_requires_first(self):
        self.reject({"schema_version": 1, "apt": {"fine1_enabled": False}},
                     "second fine stage requires the first")
        sc = resolve_scenario({"schema_version": 1,
                               "apt": {"fine1_enabled": False, "fine2_enabled": False}})
        assert not sc.apt.fine1_enabled

    def test_acquisition_bias_must_fit_coarse_fov(self):
        self.reject({"schema_version": 1, "apt": {"acquisition_bias_urad": 25000.0}},
                     "coarse camera half-FOV")
        sc = resolve_scenario({"schema_version": 1, "apt": {"acquisition_bias_urad": 0.0}})
        assert sc.apt.acquisition_bias_rad == 0.0

    def test_waist_must_fit_aperture(self):
        self.reject({"schema_version": 1, "beam": {"waist_radius_mm": 50.0}},
                     "exceeds the antenna aperture radius")

    def test_waist_whose_rayleigh_range_rounds_to_zero_rejected(self):
        # 1e-160 mm is positive in SI units, but pi w^2 / wavelength underflows
        self.reject({"schema_version": 1, "beam": {"waist_radius_mm": 1e-160}},
                     "beam.waist_radius_mm: waist_radius_m is too small")
        # 1e-150 mm has a Rayleigh range, but spreads beyond the beam model within 1 km
        self.reject({"schema_version": 1, "beam": {"waist_radius_mm": 1e-150}},
                     "beam.waist_radius_mm: puts the scenario's node distance, 1000")

    def test_waist_whose_rayleigh_range_overflows_rejected(self):
        # caught before the aperture check, which would otherwise name it
        self.reject({"schema_version": 1, "beam": {"waist_radius_mm": 1.3407807929942597e+157}},
                     "beam.waist_radius_mm: waist_radius_m is too large")

    def test_fine_fov_must_fit_coarse_fov(self):
        self.reject({"schema_version": 1, "cmos1": {"fov_azimuth_mrad": 50.0}},
                     "fine FOV exceeds the coarse camera FOV")

    def test_tcp_efficiency_bounded(self):
        self.reject({"schema_version": 1, "transceiver": {"tcp_efficiency": 1.2}},
                     "must be <= 1")

    def test_effective_rate_bounded_by_rated(self):
        with pytest.raises(ValueError, match="exceeds rated"):
            resolve_scenario({"schema_version": 1,
                              "transceiver": {"effective_tcp_gbps": 12.0}})

    def test_visibility_positive_or_null(self):
        self.reject({"schema_version": 1, "atmosphere": {"visibility_km": 0.0}},
                     "positive or null")

    def test_fixed_loss_non_negative_or_null(self):
        self.reject({"schema_version": 1, "link": {"fixed_loss_db": -1.0}},
                     "must be >= 0 or null")
        sc = resolve_scenario({"schema_version": 1, "link": {"fixed_loss_db": 0.0}})
        assert sc.fixed_loss_db == 0.0

    def test_name_must_be_non_empty_string(self):
        self.reject({"schema_version": 1, "name": ""}, "non-empty string")
        self.reject({"schema_version": 1, "name": 7}, "non-empty string")

    def test_numbers_reject_strings(self):
        self.reject({"schema_version": 1, "beam": {"wavelength_nm": "x"}},
                     "expected a number, got str")

    def test_camera_frame_rate_must_equal_tick_rate(self):
        # every camera frames once per loop tick; a slower rate would be ignored
        with pytest.raises(ScenarioError) as err:
            resolve_scenario({"schema_version": 1, "cmos1": {"frame_rate_hz": 10.0}})
        assert err.value.field == "cmos1.frame_rate_hz"
        for rate in (1000, 1000.0):
            sc = resolve_scenario({"schema_version": 1, "cmos2": {"frame_rate_hz": rate}})
            assert sc.cmos2 == default_scenario().cmos2

    def test_pixels_must_be_integer(self):
        self.reject({"schema_version": 1, "cmos0": {"pixels": 2.5}},
                     "expected an integer")

    def test_sinusoid_entries_validated_with_index(self):
        self.reject(
            {"schema_version": 1,
             "disturbance": {"pitch": {"sinusoids": [
                 {"amplitude_urad": -2.0, "frequency_hz": 1.0, "phase_deg": 0.0}]}}},
            "sinusoids[0].amplitude_urad",
        )

    @pytest.mark.parametrize("raw, field", [
        ({"beam": 5}, "beam"),
        ({"nodes": {"a": None}}, "nodes.a"),
        ({"nodes": []}, "nodes"),
        ({"disturbance": {"pitch": "x"}}, "disturbance.pitch"),
        ({"control": {"fsm1": [0.0, 1.0, 0.0]}}, "control.fsm1"),
    ])
    def test_group_must_be_an_object(self, raw, field):
        with pytest.raises(ScenarioError) as err:
            resolve_scenario({"schema_version": 1, **raw})
        assert err.value.field == field
        assert str(err.value) == f"{field}: expected an object"

    def test_unknown_key_at_any_depth(self):
        with pytest.raises(ScenarioError) as err:
            resolve_scenario({"schema_version": 1, "beacons": {"bl1": {"power_mw": 1.0}}})
        assert str(err.value) == "beacons.bl1.power_mw: unknown key"

    def test_shape_checked_before_schema_version(self):
        self.reject({"beam": 5}, "beam: expected an object")
        self.reject({"schema_version": 2, "bogus": 1}, "bogus: unknown key")

    def test_sinusoids_must_be_a_list_of_objects(self):
        self.reject({"schema_version": 1, "disturbance": {"azimuth": {"sinusoids": {}}}},
                    "disturbance.azimuth.sinusoids: expected a list")
        self.reject({"schema_version": 1, "disturbance": {"azimuth": {"sinusoids": [None]}}},
                    "disturbance.azimuth.sinusoids[0]: expected an object")

    def test_sinusoid_missing_key_named_in_schema_order(self):
        entry = {"amplitude_urad": 1.0, "frequency_hz": 1.0, "phase_deg": 0.0}
        for missing in (("amplitude_urad",), ("frequency_hz", "phase_deg"), tuple(entry)):
            partial = {k: v for k, v in entry.items() if k not in missing}
            with pytest.raises(ScenarioError) as err:
                resolve_scenario({"schema_version": 1, "disturbance": {"pitch": {
                    "sinusoids": [entry, partial]}}})
            assert str(err.value) == (
                f"disturbance.pitch.sinusoids[1].{missing[0]}: missing required key")

    def test_sinusoid_unknown_key(self):
        self.reject(
            {"schema_version": 1, "disturbance": {"pitch": {"sinusoids": [
                {"amplitude_urad": 1.0, "frequency_hz": 1.0, "phase_deg": 0.0, "x": 1}]}}},
            "disturbance.pitch.sinusoids[0].x: unknown key",
        )

    @pytest.mark.parametrize("version", [True, 1.0, "1", 2])
    def test_schema_version_must_be_the_integer_one(self, version):
        # true and 1.0 equal 1 in Python, but would hash to other digests
        with pytest.raises(ScenarioError) as err:
            resolve_scenario({"schema_version": version})
        assert err.value.field == "schema_version"

    @pytest.mark.parametrize("axis", ["pitch", "azimuth"])
    def test_noise_bandwidth_ceiling(self, axis):
        # 0.45 x the 1000 Hz tick rate; above it the bandwidth was once
        # silently capped to 450 Hz
        def doc(bandwidth):
            return {"schema_version": 1,
                    "disturbance": {axis: {"noise_bandwidth_hz": bandwidth}}}

        sc = resolve_scenario(doc(450))
        assert getattr(sc.disturbance, axis).noise_bandwidth_hz == 450.0
        for bandwidth in (450.5, 499, 1e308):
            self.reject(doc(bandwidth), f"disturbance.{axis}.noise_bandwidth_hz: must be <= 450")

    @pytest.mark.parametrize("group, key", [("cmos0", "pixels"), ("cmos2", "pixels"),
                                            ("apt", "lock_loss_frames")])
    def test_integer_key_beyond_float_range_named(self, group, key):
        with pytest.raises(ScenarioError) as err:
            resolve_scenario({"schema_version": 1, group: {key: 10**400}})
        assert str(err.value) == f"{group}.{key}: must be within the float range"

    def test_pixel_pitch_must_not_round_to_zero(self):
        with pytest.raises(ScenarioError) as err:
            resolve_scenario({"schema_version": 1, "cmos0": {
                "fov_pitch_mrad": 1e-300, "pixels": 10**300}})
        assert err.value.field == "cmos0.pixels"

    def test_centroid_noise_must_keep_readings_in_float_range(self):
        with pytest.raises(ScenarioError) as err:
            resolve_scenario({"schema_version": 1, "cmos1": {"centroid_noise_urad": 1e308}})
        assert err.value.field == "cmos1.centroid_noise_urad"
        # noise beyond the FOV is fine: readings clip to the FOV
        resolve_scenario({"schema_version": 1, "cmos1": {"centroid_noise_urad": 1e9}})

    def test_sinusoid_frequency_at_most_nyquist(self):
        def doc(frequency_hz):
            return {"schema_version": 1, "disturbance": {"azimuth": {"sinusoids": [
                {"amplitude_urad": 1.0, "frequency_hz": frequency_hz, "phase_deg": 0.0}]}}}
        assert resolve_scenario(doc(500.0)).disturbance.azimuth.sinusoids[0].frequency_hz == 500.0
        for frequency_hz in (500.001, 1e308):
            with pytest.raises(ScenarioError) as err:
                resolve_scenario(doc(frequency_hz))
            assert err.value.field == "disturbance.azimuth.sinusoids[0].frequency_hz"

    def test_noise_bandwidth_floor(self):
        sc = resolve_scenario({"schema_version": 1,
                               "disturbance": {"pitch": {"noise_bandwidth_hz": 0.01}}})
        assert sc.disturbance.pitch.noise_bandwidth_hz == 0.01
        for bandwidth in (0.0099, 1e-300, 0.0):
            self.reject({"schema_version": 1,
                         "disturbance": {"pitch": {"noise_bandwidth_hz": bandwidth}}},
                        "disturbance.pitch.noise_bandwidth_hz: must be >= 0.01")

    @pytest.mark.parametrize("group, key", [
        ("beam", "wavelength_nm"), ("antenna", "aperture_diameter_mm"),
        ("cmos1", "fov_azimuth_mrad"), ("fsm2", "range_urad"), ("gimbal", "pitch_range_deg"),
    ])
    def test_value_rounding_to_zero_in_si_units_named(self, group, key):
        # 5e-324 is positive, but times the unit scale it is 0.0
        with pytest.raises(ScenarioError) as err:
            resolve_scenario({"schema_version": 1, group: {key: 5e-324}})
        assert str(err.value) == f"{group}.{key}: is too small: it rounds to zero in SI units"

    def test_rated_rate_below_effective_named(self):
        with pytest.raises(ScenarioError) as err:
            resolve_scenario({"schema_version": 1, "transceiver": {"rated_gbps": 3.0}})
        assert str(err.value) == "transceiver.effective_tcp_gbps: exceeds rated_gbps"

    def test_integer_beyond_float_range_rejected(self):
        self.reject({"schema_version": 1, "gimbal": {"bandwidth_hz": 10**400}},
                    "gimbal.bandwidth_hz: must be finite")

    @pytest.mark.parametrize("node, altitude", [
        ("b", 1e160), ("a", 1e160), ("b", -1e200), ("a", 1.7e308),
    ])
    def test_node_distance_beyond_float_range_names_altitude(self, node, altitude):
        with pytest.raises(ScenarioError) as err:
            resolve_scenario({"schema_version": 1, "nodes": {node: {"altitude_m": altitude}}})
        assert err.value.field == f"nodes.{node}.altitude_m"

    @pytest.mark.parametrize("node, altitude", [("b", 1e13), ("a", 1e13), ("b", -1e150)])
    def test_node_distance_beyond_beam_model_names_altitude(self, node, altitude):
        # finite, but the captured power fraction rounds to 0
        with pytest.raises(ScenarioError) as err:
            resolve_scenario({"schema_version": 1, "nodes": {node: {"altitude_m": altitude}}})
        assert err.value.field == f"nodes.{node}.altitude_m"
        assert "node distance" in str(err.value) and "beam model" in str(err.value)

    def test_large_finite_node_distance_resolves(self):
        # the default beam reaches about 7e11 m
        sc = resolve_scenario({"schema_version": 1, "nodes": {"b": {"altitude_m": 1e11}}})
        assert math.isfinite(sc.distance_m)


def _bounds():
    """(dotted path, bound, closed, side) for every bound resolve_scenario
    states on a leaf; side is -1 for a low bound and +1 for a high one."""
    low_open = [
        "beam.wavelength_nm", "beam.waist_radius_mm",
        "antenna.aperture_diameter_mm", "antenna.magnification",
        "atmosphere.visibility_km",
        "coupling.base_loss_db", "coupling.rolloff_halfwidth_urad",
        "transceiver.rated_gbps", "transceiver.effective_tcp_gbps",
        "transceiver.tcp_efficiency", "transceiver.max_tolerable_loss_db",
        "gimbal.azimuth_range_deg", "gimbal.pitch_range_deg", "gimbal.bandwidth_hz",
        "gimbal.max_rate_deg_s",
        "apt.fine_capture_threshold_urad", "apt.link_threshold_urad", "apt.link_dwell_s",
        "apt.stabilize_rate_threshold_urad_s", "apt.stabilize_dwell_s",
    ]
    low_open += [f"{fsm}.{key}" for fsm in ("fsm1", "fsm2")
                 for key in ("range_urad", "bandwidth_hz")]
    low_open += [f"{cam}.{key}" for cam in ("cmos0", "cmos1", "cmos2")
                 for key in ("fov_pitch_mrad", "fov_azimuth_mrad")]
    low_open += [f"beacons.{bl}.{key}" for bl in ("bl0", "bl1", "bl2")
                 for key in ("wavelength_nm", "divergence_mrad")]
    low_closed = ["antenna.insertion_loss_db", "link.fixed_loss_db", "imu.rate_noise_urad_s",
                  "apt.acquisition_bias_urad", "apt.stats_warmup_s"]
    low_closed += [f"cmos{i}.centroid_noise_urad" for i in range(3)]
    low_closed += [f"control.{loop}.{gain}" for loop in ("coarse", "fsm1", "fsm2")
                   for gain in ("kp", "ki", "kd")]
    bounds = [(field, 0.0, False, -1) for field in low_open]
    bounds += [(field, 0.0, True, -1) for field in low_closed]
    bounds += [(f"cmos{i}.pixels", 1, True, -1) for i in range(3)]
    bounds += [("apt.lock_loss_frames", 1, True, -1), ("transceiver.tcp_efficiency", 1.0, True, 1)]
    for i in range(3):  # the tick rate is the only frame rate
        bounds += [(f"cmos{i}.frame_rate_hz", 1000.0, True, side) for side in (-1, 1)]
    for node in ("a", "b"):
        bounds += [(f"nodes.{node}.{key}", side * limit, True, side)
                   for key, limit in (("latitude_deg", 90.0), ("longitude_deg", 180.0))
                   for side in (-1, 1)]
    for axis in ("pitch", "azimuth"):
        path = f"disturbance.{axis}"
        bounds += [(f"{path}.noise_rms_urad", 0.0, True, -1),
                   (f"{path}.noise_bandwidth_hz", 0.01, True, -1),
                   (f"{path}.noise_bandwidth_hz", 450.0, True, 1),
                   (f"{path}.sinusoids[0].amplitude_urad", 0.0, True, -1),
                   (f"{path}.sinusoids[0].frequency_hz", 0.0, False, -1),
                   (f"{path}.sinusoids[0].frequency_hz", 500.0, True, 1)]
    return bounds


BOUNDS = _bounds()
# leaves with no bound of their own (schema_version, which must be the
# integer 1, has tests of its own; the node altitudes are bounded together,
# by the node distance)
UNBOUNDED = {"schema_version", "name", "nodes.a.altitude_m", "nodes.b.altitude_m",
             "disturbance.pitch.sinusoids[0].phase_deg",
             "disturbance.azimuth.sinusoids[0].phase_deg",
             "apt.fine1_enabled", "apt.fine2_enabled"}


def _leaves(node, path=""):
    for key, value in node.items():
        field = f"{path}.{key}" if path else key
        if isinstance(value, dict):
            yield from _leaves(value, field)
        elif isinstance(value, list):
            yield from _leaves(value[0], f"{field}[0]")
        else:
            yield field


def _with_leaf(field, value):
    """DEFAULTS with the leaf at the dotted path field set to value."""
    raw = copy.deepcopy(DEFAULTS)
    *parents, leaf = field.replace("[0]", ".0").split(".")
    node = raw
    for key in parents:
        node = node[int(key) if key.isdigit() else key]
    node[leaf] = value
    return raw


def test_every_leaf_is_bounded_or_named_unbounded():
    assert {field for field, *_ in BOUNDS} == set(_leaves(DEFAULTS)) - UNBOUNDED


@pytest.mark.parametrize("field, bound, closed, side", BOUNDS,
                         ids=[f"{f}{'>' if s < 0 else '<'}{'=' if c else ''}{b}"
                              for f, b, c, s in BOUNDS])
def test_every_bound_at_its_edge(field, bound, closed, side):
    # at the bound a closed bound resolves and an open one refuses; one ulp
    # past it (one for an integer), every bound refuses by the dotted path
    past = bound + side if isinstance(bound, int) else math.nextafter(bound, side * math.inf)
    if closed:
        resolve_scenario(_with_leaf(field, bound))
    for value in [past] if closed else [bound, past]:
        with pytest.raises(ScenarioError) as err:
            resolve_scenario(_with_leaf(field, value))
        assert err.value.field == field, value


class TestFuzzedDocuments:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_resolves_or_raises_scenario_error(self, data):
        raw = mutate_json(data, DEFAULTS)
        try:
            sc = resolve_scenario(raw)
        except ScenarioError:
            return
        assert math.isfinite(sc.distance_m)

    def test_defaults_are_not_mutated(self):
        before = copy.deepcopy(DEFAULTS)
        resolve_scenario({"schema_version": 1, "disturbance": {"pitch": {"sinusoids": []}}})
        assert DEFAULTS == before


class TestDigest:
    def test_repeatable(self):
        a = resolve_scenario({"schema_version": 1})
        b = resolve_scenario({"schema_version": 1})
        assert a.digest == b.digest
        assert len(a.digest) == 64
        int(a.digest, 16)

    def test_sensitive_to_any_override(self):
        base = resolve_scenario({"schema_version": 1})
        named = resolve_scenario({"schema_version": 1, "name": "x"})
        moved = resolve_scenario({"schema_version": 1, "nodes": {"b": {"altitude_m": 41.0}}})
        assert len({base.digest, named.digest, moved.digest}) == 3

    def test_explicit_defaults_hash_like_omitted_ones(self):
        a = resolve_scenario({"schema_version": 1})
        b = resolve_scenario({"schema_version": 1, "beam": {"wavelength_nm": 1550.0}})
        assert a.digest == b.digest


class TestLoadScenario:
    def test_reads_shipped_scenario(self):
        sc = load_scenario("scenarios/1km_default.json")
        assert sc.name == "1km_default"
        assert sc.distance_m == pytest.approx(1000.0, abs=0.5)

    def test_coarse_only_scenario_disables_fine_stages(self):
        sc = load_scenario("scenarios/1km_coarse_only.json")
        assert not sc.apt.fine1_enabled
        assert not sc.apt.fine2_enabled

    def test_invalid_json_reports_position(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"schema_version": 1,\n  "name": }\n')
        with pytest.raises(ScenarioError) as err:
            load_scenario(p)
        assert "line 2" in str(err.value)
        assert "column" in str(err.value)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_scenario(tmp_path / "nope.json")

    def test_round_trip_matches_resolve(self, tmp_path):
        raw = {"schema_version": 1, "name": "rt", "link": {"fixed_loss_db": 24.0}}
        p = tmp_path / "rt.json"
        p.write_text(json.dumps(raw))
        assert load_scenario(p).digest == resolve_scenario(raw).digest
