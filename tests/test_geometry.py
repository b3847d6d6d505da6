import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsosim import (
    CoincidentEndpointsError,
    GeodeticPosition,
    geodetic_to_ecef,
    pointing_solution,
)
from fsosim.geometry import WGS84_FLATTENING, WGS84_SEMI_MAJOR_M

_E2 = WGS84_FLATTENING * (2.0 - WGS84_FLATTENING)
SEMI_MINOR_M = WGS84_SEMI_MAJOR_M * (1.0 - WGS84_FLATTENING)


def deg(lat, lon, alt=0.0):
    return GeodeticPosition(math.radians(lat), math.radians(lon), alt)


class TestGeodeticToEcef:
    def test_equator_prime_meridian(self):
        v = geodetic_to_ecef(deg(0.0, 0.0))
        assert v.x_m == WGS84_SEMI_MAJOR_M
        assert v.y_m == 0.0
        assert v.z_m == 0.0

    def test_north_pole(self):
        v = geodetic_to_ecef(deg(90.0, 0.0))
        assert abs(v.x_m) < 1e-6
        assert abs(v.y_m) < 1e-6
        assert v.z_m == pytest.approx(SEMI_MINOR_M, abs=1e-6)

    def test_mid_latitude_reference_point(self):
        # reference computed with 50-digit arithmetic from the ellipsoid relations
        v = geodetic_to_ecef(deg(41.3, -72.9, 40.0))
        assert v.x_m == pytest.approx(1411010.541342, abs=1e-5)
        assert v.y_m == pytest.approx(-4586561.445801, abs=1e-5)
        assert v.z_m == pytest.approx(4187536.952778, abs=1e-5)

    def test_altitude_moves_radially(self):
        lo = geodetic_to_ecef(deg(41.3, -72.9, 0.0))
        hi = geodetic_to_ecef(deg(41.3, -72.9, 1000.0))
        d = math.dist((lo.x_m, lo.y_m, lo.z_m), (hi.x_m, hi.y_m, hi.z_m))
        assert d == pytest.approx(1000.0, abs=1e-9)

    @given(
        lat=st.floats(-89.0, 89.0),
        lon=st.floats(-179.9, 179.9),
        alt=st.floats(-4000.0, 9000.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_against_iterative_inverse(self, lat, lon, alt):
        v = geodetic_to_ecef(deg(lat, lon, alt))
        # independent inverse: fixed-point iteration on the geodetic latitude
        p = math.hypot(v.x_m, v.y_m)
        lat_i = math.atan2(v.z_m, p * (1.0 - _E2))
        for _ in range(20):
            n = WGS84_SEMI_MAJOR_M / math.sqrt(1.0 - _E2 * math.sin(lat_i) ** 2)
            alt_i = p / math.cos(lat_i) - n
            lat_i = math.atan2(v.z_m, p * (1.0 - _E2 * n / (n + alt_i)))
        assert math.degrees(lat_i) == pytest.approx(lat, abs=1e-9)
        assert math.degrees(math.atan2(v.y_m, v.x_m)) == pytest.approx(lon, abs=1e-9)
        assert alt_i == pytest.approx(alt, abs=1e-5)


class TestPointingSolution:
    def test_east_baseline_azimuth_and_horizon_dip(self):
        a = deg(41.3, -72.9, 40.0)
        b = deg(41.3, -72.88806014, 40.0)  # 1 km due east
        ang = pointing_solution(a, b)
        assert math.degrees(ang.azimuth_rad) == pytest.approx(89.996059836, abs=1e-6)
        # equal-altitude target sits below the local horizon by ~ d / (2 R)
        assert ang.elevation_rad * 1e6 == pytest.approx(-78.277917, abs=1e-3)

    def test_target_above_is_positive_elevation(self):
        a = deg(41.3, -72.9, 0.0)
        b = deg(41.3, -72.88806014, 500.0)
        assert pointing_solution(a, b).elevation_rad > 0.0

    def test_due_north_azimuth_zero(self):
        ang = pointing_solution(deg(41.3, -72.9), deg(41.31, -72.9))
        assert ang.azimuth_rad == pytest.approx(0.0, abs=1e-9)

    def test_zenith_target_defaults_azimuth_zero(self):
        ang = pointing_solution(deg(41.3, -72.9, 0.0), deg(41.3, -72.9, 100.0))
        assert ang.azimuth_rad == 0.0
        assert ang.elevation_rad == pytest.approx(math.pi / 2, abs=1e-9)

    def test_coincident_endpoints_raise(self):
        a = deg(41.3, -72.9, 40.0)
        with pytest.raises(CoincidentEndpointsError):
            pointing_solution(a, a)

    @given(
        lat=st.floats(-60.0, 60.0),
        lon=st.floats(-170.0, 170.0),
        east_km=st.floats(0.1, 20.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_equal_altitude_endpoints_see_each_other_below_horizon(self, lat, lon, east_km):
        dlon = math.degrees(east_km * 1000.0 / (6.4e6 * math.cos(math.radians(lat))))
        a = deg(lat, lon, 50.0)
        b = deg(lat, lon + dlon, 50.0)
        assert pointing_solution(a, b).elevation_rad < 0.0
        assert pointing_solution(b, a).elevation_rad < 0.0
