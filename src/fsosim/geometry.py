"""Terminal geometry: WGS-84 positions and line-of-sight pointing.

Conventions
-----------
- Latitude/longitude in radians, altitude in meters above the ellipsoid.
- ECEF axes: +x through the prime meridian at the equator, +z through the
  north pole.
- Azimuth is measured clockwise from true north in the local horizontal
  plane; elevation is positive above the horizon.  Both in radians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# WGS-84 ellipsoid constants
WGS84_SEMI_MAJOR_M = 6378137.0
WGS84_FLATTENING = 1.0 / 298.257223563
_E2 = WGS84_FLATTENING * (2.0 - WGS84_FLATTENING)  # first eccentricity squared

# Endpoints closer than this are treated as coincident (no defined bearing).
MIN_BASELINE_M = 1e-3


class CoincidentEndpointsError(ValueError):
    """Observer and target are too close to define a pointing direction."""


@dataclass(frozen=True)
class GeodeticPosition:
    """Ellipsoidal coordinates of a terminal."""

    latitude_rad: float
    longitude_rad: float
    altitude_m: float


@dataclass(frozen=True)
class EcefVector:
    x_m: float
    y_m: float
    z_m: float


@dataclass(frozen=True)
class PointingAngles:
    """Azimuth (clockwise from north) and elevation, radians."""

    azimuth_rad: float
    elevation_rad: float


def geodetic_to_ecef(position: GeodeticPosition) -> EcefVector:
    """Convert geodetic coordinates to earth-centered, earth-fixed meters.

    Uses the closed-form ellipsoid relations with the prime-vertical radius
    N(lat) = a / sqrt(1 - e^2 sin^2 lat).
    """
    lat, lon, h = position.latitude_rad, position.longitude_rad, position.altitude_m
    sin_lat = math.sin(lat)
    cos_lat = math.cos(lat)
    n = WGS84_SEMI_MAJOR_M / math.sqrt(1.0 - _E2 * sin_lat * sin_lat)
    return EcefVector(
        x_m=(n + h) * cos_lat * math.cos(lon),
        y_m=(n + h) * cos_lat * math.sin(lon),
        z_m=(n * (1.0 - _E2) + h) * sin_lat,
    )


def pointing_solution(observer: GeodeticPosition, target: GeodeticPosition) -> PointingAngles:
    """Azimuth/elevation of the line of sight from observer to target.

    The ECEF baseline is rotated into the observer's east/north/up frame.
    A target at the observer's zenith has undefined azimuth; 0 is returned
    by convention.

    Raises
    ------
    CoincidentEndpointsError
        If the baseline is shorter than MIN_BASELINE_M.
    """
    obs = geodetic_to_ecef(observer)
    tgt = geodetic_to_ecef(target)
    dx, dy, dz = tgt.x_m - obs.x_m, tgt.y_m - obs.y_m, tgt.z_m - obs.z_m
    if math.sqrt(dx * dx + dy * dy + dz * dz) < MIN_BASELINE_M:
        raise CoincidentEndpointsError(
            f"baseline shorter than {MIN_BASELINE_M} m; pointing undefined"
        )

    sin_lat = math.sin(observer.latitude_rad)
    cos_lat = math.cos(observer.latitude_rad)
    sin_lon = math.sin(observer.longitude_rad)
    cos_lon = math.cos(observer.longitude_rad)

    east = -sin_lon * dx + cos_lon * dy
    north = -sin_lat * cos_lon * dx - sin_lat * sin_lon * dy + cos_lat * dz
    up = cos_lat * cos_lon * dx + cos_lat * sin_lon * dy + sin_lat * dz

    horizontal = math.hypot(east, north)
    # below ~10 nrad off zenith the horizontal part is rounding noise from
    # the large ECEF coordinates; apply the zenith convention there
    azimuth = math.atan2(east, north) if horizontal > 1e-8 * abs(up) else 0.0
    elevation = math.atan2(up, horizontal)
    return PointingAngles(azimuth_rad=azimuth, elevation_rad=elevation)
