import dataclasses
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from fsosim import (
    AntennaSpec,
    AtmosphereModel,
    BeamModel,
    CouplingModel,
    default_scenario,
    distance_sweep,
    link_budget,
    load_scenario,
)
from fsosim.io import write_sweep_csv
from fsosim.optics import DB_PER_NEPER, _beam_radius_m, _kim_size_exponent

BEAM = BeamModel(wavelength_m=1550e-9, waist_radius_m=0.0405)
ANTENNA = AntennaSpec(aperture_diameter_m=0.090, magnification=10.0, insertion_loss_db=2.942)
CLEAR = AtmosphereModel(visibility_m=math.inf, wavelength_m=1550e-9)
COUPLING = CouplingModel(base_coupling_loss_db=6.435, rolloff_halfwidth_rad=7e-6)
FOG = AtmosphereModel(visibility_m=5000.0, wavelength_m=1550e-9)


def scenario_with(atmosphere=CLEAR):
    """The default scenario with the models above."""
    return dataclasses.replace(default_scenario(), beam=BEAM, antenna=ANTENNA,
                               atmosphere=atmosphere, coupling=COUPLING)


def diffraction_db(distance_m):
    return link_budget(CLEAR_SCENARIO, distance_m).diffraction_db


def atmosphere_db(atm, distance_m):
    return link_budget(scenario_with(atm), distance_m).atmosphere_db


def jitter_db(radial_error_rad):
    return link_budget(CLEAR_SCENARIO, 1000.0, radial_error_rad).jitter_excess_db


def beam_radius_m(beam, distance_m):
    return _beam_radius_m(beam.waist_radius_m, beam.rayleigh_range_m, distance_m)


def oracle_beam_radius_m(beam, distance_m):
    # the Gaussian-beam radius w0 sqrt(1 + (z / z_R)^2), z_R = pi w0^2 / lambda
    z_r = math.pi * beam.waist_radius_m**2 / beam.wavelength_m
    return beam.waist_radius_m * math.sqrt(1.0 + (distance_m / z_r) ** 2)


CLEAR_SCENARIO = scenario_with()
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
# every shipped scenario, and the models above with unlimited visibility and in fog
BUDGET_SCENARIOS = [
    *(load_scenario(SCENARIOS / f"{name}.json")
      for name in ("1km_default", "1km_coarse_only", "4km_fog", "bench_direct")),
    CLEAR_SCENARIO,
    scenario_with(FOG),
]
FIELDS = ("diffraction_db", "optics_db", "atmosphere_db", "coupling_base_db",
          "jitter_excess_db", "static_db", "total_db")


class TestBeam:
    def test_divergence_formula(self):
        # far from the waist the radius grows at the half-angle lambda / (pi w0)
        z = 1e9  # z / z_R ~ 5e5
        assert beam_radius_m(BEAM, z) / z == pytest.approx(
            1550e-9 / (math.pi * 0.0405), rel=1e-9
        )
        narrow = BeamModel(wavelength_m=1550e-9, waist_radius_m=0.03195)
        assert beam_radius_m(narrow, z) / z == pytest.approx(15.44226365e-6, rel=1e-9)

    def test_radius_at_waist(self):
        assert beam_radius_m(BEAM, 0.0) == BEAM.waist_radius_m

    def test_radius_far_field_asymptote(self):
        z = 500_000.0  # z / z_R ~ 150
        assert beam_radius_m(BEAM, z) == pytest.approx(
            BEAM.wavelength_m / (math.pi * BEAM.waist_radius_m) * z, rel=1e-4
        )

    @given(st.floats(0.0, 1e5), st.floats(1.0, 1e5))
    @settings(max_examples=100, deadline=None)
    def test_radius_monotone(self, z, dz):
        assert beam_radius_m(BEAM, z + dz) > beam_radius_m(BEAM, z)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="distance_m must be >= 0"):
            link_budget(CLEAR_SCENARIO, -1.0)


class TestDiffraction:
    def test_zero_distance_convention(self):
        assert diffraction_db(0.0) == 0.0

    # frozen closed-form values (50-digit cross-check of the capture formula)
    @pytest.mark.parametrize("km,expected_db", [
        (0.1, 0.385063668),
        (1.0, 0.476464120),
        (2.0, 0.773603140),
        (4.0, 1.969967139),
        (10.0, 6.617957881),
        (20.0, 11.922324664),
    ])
    def test_reference_values(self, km, expected_db):
        assert diffraction_db(km * 1000.0) == pytest.approx(expected_db, abs=1e-8)

    @pytest.mark.parametrize("km", [0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 20.0])
    def test_against_2d_quadrature(self, km):
        # captured fraction integrated numerically over the aperture disc
        w = oracle_beam_radius_m(BEAM, km * 1000.0)
        a = ANTENNA.aperture_radius_m
        captured, _ = integrate.dblquad(
            lambda r, phi: (2.0 / (math.pi * w * w)) * math.exp(-2.0 * r * r / (w * w)) * r,
            0.0, 2.0 * math.pi, 0.0, a,
        )
        oracle_db = -10.0 * math.log10(captured)
        closed = diffraction_db(km * 1000.0)
        assert closed == pytest.approx(oracle_db, abs=0.3)

    @given(st.floats(1.0, 20_000.0), st.floats(1.0, 5000.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_distance(self, z, dz):
        assert diffraction_db(z + dz) >= diffraction_db(z)


def kim_oracle_db(v_km, lam_nm, d_km):
    # independent evaluation of the piecewise visibility model
    if v_km > 50.0:
        q = 1.6
    elif v_km > 6.0:
        q = 1.3
    elif v_km > 1.0:
        q = 0.16 * v_km + 0.34
    elif v_km > 0.5:
        q = v_km - 0.5
    else:
        q = 0.0
    beta = (3.912 / v_km) * (lam_nm / 550.0) ** (-q)
    return (10.0 / math.log(10.0)) * beta * d_km


class TestAtmosphere:
    def test_unlimited_visibility_is_lossless(self):
        assert atmosphere_db(CLEAR, 25_000.0) == 0.0

    @pytest.mark.parametrize("v_km,lam_nm,expected_db_per_km", [
        (5.0, 1550.0, 1.042913966),
        (10.0, 1550.0, 0.441797695),
        (23.0, 850.0, 0.419451947),
        (0.7, 1550.0, 19.728375055),
        (60.0, 1550.0, 0.053961187),
        (1.5, 1310.0, 6.846756879),
        (0.3, 550.0, 56.632000440),
    ])
    def test_reference_values(self, v_km, lam_nm, expected_db_per_km):
        atm = AtmosphereModel(visibility_m=v_km * 1000.0, wavelength_m=lam_nm * 1e-9)
        assert atmosphere_db(atm, 1000.0) == pytest.approx(expected_db_per_km, abs=1e-8)

    @pytest.mark.parametrize("v_km", [0.2, 0.5, 0.7, 1.0, 1.5, 5.0, 6.0, 10.0, 23.0, 50.0, 80.0])
    @pytest.mark.parametrize("lam_nm", [550.0, 850.0, 1310.0, 1550.0])
    @pytest.mark.parametrize("d_km", [0.5, 1.0, 4.0, 10.0])
    def test_oracle_equality_over_grid(self, v_km, lam_nm, d_km):
        atm = AtmosphereModel(visibility_m=v_km * 1000.0, wavelength_m=lam_nm * 1e-9)
        assert atmosphere_db(atm, d_km * 1000.0) == pytest.approx(
            kim_oracle_db(v_km, lam_nm, d_km), abs=1e-9
        )

    def test_size_exponent_piecewise_boundaries(self):
        assert _kim_size_exponent(60_000.0) == 1.6
        assert _kim_size_exponent(50_000.0) == 1.3
        assert _kim_size_exponent(6_000.0) == pytest.approx(0.16 * 6.0 + 0.34)
        assert _kim_size_exponent(1_000.0) == pytest.approx(0.5)
        assert _kim_size_exponent(500.0) == 0.0
        assert _kim_size_exponent(200.0) == 0.0

    def test_longer_wavelength_attenuates_less(self):
        haze = 5000.0
        a1550 = atmosphere_db(AtmosphereModel(visibility_m=haze, wavelength_m=1550e-9), 1000.0)
        a850 = atmosphere_db(AtmosphereModel(visibility_m=haze, wavelength_m=850e-9), 1000.0)
        assert a1550 < a850


class TestCoupling:
    def test_zero_error_is_base_loss(self):
        b = link_budget(CLEAR_SCENARIO, 1000.0)
        assert b.coupling_base_db == COUPLING.base_coupling_loss_db
        assert b.jitter_excess_db == 0.0

    def test_one_halfwidth_adds_one_neper(self):
        excess = jitter_db(COUPLING.rolloff_halfwidth_rad)
        assert excess == pytest.approx(DB_PER_NEPER, rel=1e-12)
        assert excess == pytest.approx(4.342944819, abs=1e-9)

    def test_quadratic_in_error(self):
        e = 3.1e-6
        assert jitter_db(2.0 * e) == pytest.approx(4.0 * jitter_db(e), rel=1e-12)

    def test_negative_error_rejected(self):
        with pytest.raises(ValueError, match="radial_error_rad must be >= 0"):
            jitter_db(-1e-6)

    def test_huge_error_is_infinite_without_a_warning(self):
        # the CLI refuses a non-finite jitter loss by --error-urad; numpy's
        # overflow warning would print before that message
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert jitter_db(1e300) == math.inf
            assert jitter_db(np.array([1e-6, 1e300]))[1] == math.inf


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestLinkBudget:
    def test_total_is_exact_sum(self):
        b = link_budget(scenario_with(FOG), 4000.0, 5e-6)
        assert b.static_db == b.diffraction_db + b.optics_db + b.atmosphere_db
        assert b.total_db == (
            b.diffraction_db + b.optics_db + b.atmosphere_db
            + b.coupling_base_db + b.jitter_excess_db
        )
        assert b.optics_db == 2 * ANTENNA.insertion_loss_db

    def test_one_km_zero_error_reference(self):
        b = link_budget(CLEAR_SCENARIO, 1000.0)
        assert b.total_db == pytest.approx(12.795464104, abs=1e-6)
        # a float distance gives float terms, which serialise as Python floats do
        assert all(isinstance(getattr(b, field), float) for field in FIELDS)

    @given(st.sampled_from(BUDGET_SCENARIOS),
           st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e6)), min_size=1, max_size=20),
           st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e-3)), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_array_equals_float_calls_bit_for_bit(self, scenario, distances, errors):
        # a column of distances and a row of errors broadcast to a table
        b = link_budget(scenario, np.array(distances)[:, None], np.array(errors))
        shape = (len(distances), len(errors))
        each = [[link_budget(scenario, d, e) for e in errors] for d in distances]
        for field in FIELDS:
            got = np.broadcast_to(getattr(b, field), shape)
            want = [[getattr(e, field) for e in row] for row in each]
            assert np.array_equal(bits(got), bits(want)), field
        assert np.shape(b.jitter_excess_db) == (len(errors),)
        assert np.shape(b.total_db) == shape

    @pytest.mark.parametrize("changes, distance_m, error_rad, message", [
        # the scenario's models are resolve_scenario's to check: a waist wider
        # than the aperture, built by hand, passes on to the argument checks
        ({"beam": BeamModel(wavelength_m=1550e-9, waist_radius_m=0.050)}, -1.0, 0.0,
         "distance_m must be >= 0"),
        ({}, -1.0, 0.0, "distance_m must be >= 0"),
        ({}, np.array([1000.0, -0.5]), 0.0, "distance_m must be >= 0"),
        ({}, 1000.0, -1e-6, "radial_error_rad must be >= 0"),
        ({}, 1000.0, np.array([1e-6, -1e-9]), "radial_error_rad must be >= 0"),
        # NaN fails every comparison, so a check written as x < 0 misses it
        ({}, math.nan, 0.0, "distance_m must be >= 0"),
        ({}, np.array([1000.0, math.nan]), 0.0, "distance_m must be >= 0"),
        ({}, 1000.0, math.nan, "radial_error_rad must be >= 0"),
    ])
    def test_each_refusal_is_raised_by_link_budget(self, changes, distance_m, error_rad,
                                                   message):
        scenario = dataclasses.replace(CLEAR_SCENARIO, **changes)
        with pytest.raises(ValueError, match=f"^{message}$"):
            link_budget(scenario, distance_m, error_rad)

    @pytest.mark.parametrize("far_m", [1e12, 1e300, 1e308])
    def test_one_distance_beyond_the_beam_model_raises(self, far_m):
        # 1e12 m: the captured fraction rounds to 0; from 1e300 m the beam
        # radius overflows in a float power, whose error names nothing
        message = f"^{re.escape(f'distance_m={far_m}')} is beyond the range of the beam model$"
        with pytest.raises(OverflowError, match=message):
            link_budget(CLEAR_SCENARIO, far_m)
        with pytest.raises(OverflowError, match=message):
            link_budget(CLEAR_SCENARIO, np.array([1000.0, far_m, 2000.0]))


class TestDistanceSweep:
    def test_endpoints_and_length(self):
        table = distance_sweep(CLEAR_SCENARIO, 100.0, 10_000.0, 100)
        assert table.shape == (100, 3)
        assert table[0, 0] == 100.0
        assert table[-1, 0] == 10_000.0

    def test_static_excludes_coupling_terms(self):
        for scenario in BUDGET_SCENARIOS:
            table = distance_sweep(scenario, 100.0, 10_000.0, 5)
            for d, diff, static in table.tolist():
                b = link_budget(scenario, d, 0.0)
                assert diff == b.diffraction_db
                assert static == b.static_db == b.diffraction_db + b.optics_db + b.atmosphere_db

    def test_monotone_nondecreasing_total(self):
        totals = distance_sweep(CLEAR_SCENARIO, 100.0, 20_000.0, 200)[:, 2]
        assert np.all(np.diff(totals) >= 0.0)

    def test_csv_round_trips_the_array(self, tmp_path):
        table = distance_sweep(scenario_with(FOG), 50.0, 40_000.0, 5000)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, table)
        back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        # each cell reads back as its 6-significant-digit text
        assert np.array_equal(bits(back), bits([[float("%.6g" % v) for v in row]
                                                for row in table.tolist()]))
        write_sweep_csv(tmp_path / "again.csv", back)
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()

    def test_invalid_ranges(self):
        # refused before the distances are built: an infinite bound would
        # make numpy warn of a NaN distance first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d_min_m, d_max_m, steps in [(0.0, 1000.0, 10), (2000.0, 1000.0, 10),
                                            (100.0, 1000.0, 1), (100.0, math.inf, 3),
                                            (math.inf, math.inf, 3), (100.0, math.nan, 3)]:
                with pytest.raises(ValueError):
                    distance_sweep(CLEAR_SCENARIO, d_min_m, d_max_m, steps)

    def test_steps_beyond_memory_refused_by_name(self):
        # 10**15 rows would need some 56 PB: refused before np.arange
        # allocates them
        with pytest.raises(ValueError, match=r"^steps: .*bytes of memory"):
            distance_sweep(CLEAR_SCENARIO, 1.0, 2.0, 10**15)
