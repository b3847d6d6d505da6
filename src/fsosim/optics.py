"""Optical link budget: Gaussian-beam diffraction, visibility attenuation, fiber coupling.

All lengths in meters, angles in radians, losses in positive dB.  The Kim
visibility model works in km and nm internally.

`link_budget` is the one entry point, and checks its distance and error
arguments; `scenario.resolve_scenario` checks the models it reads.  Its
budget, at a distance and a radial pointing error (either may be an
array), is additive in dB:

    total = diffraction + optics insertion + atmosphere
            + fiber-coupling base + pointing-jitter excess
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # scenario imports this module
    from .scenario import Scenario

# exact conversion from base-e extinction to dB
DB_PER_NEPER = 10.0 / math.log(10.0)

# Kim model reference wavelength [nm]
_KIM_REFERENCE_NM = 550.0


def _check_fits(name: str, count: int, what: str, bytes_each: int) -> None:
    """Refuse up front, by the parameter's name, a count whose arrays cannot
    fit in physical memory, rather than fail (or be killed) while they are
    allocated."""
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        memory = sys.maxsize
    if count > memory // bytes_each:
        # three digits of the count: Decimal takes any int, where float overflows
        from decimal import Decimal

        raise ValueError(f"{name}: {Decimal(count):.3g} {what} at {bytes_each} bytes each "
                         f"need more than the {memory:.3g} bytes of memory here")


@dataclass(frozen=True)
class AntennaSpec:
    """Transmit/receive telescope: Cassegrain aperture plus internal losses."""

    aperture_diameter_m: float
    magnification: float
    insertion_loss_db: float

    @property
    def aperture_radius_m(self) -> float:
        return 0.5 * self.aperture_diameter_m


@dataclass(frozen=True)
class BeamModel:
    """Fundamental-mode Gaussian beam launched from the transmit aperture."""

    wavelength_m: float
    waist_radius_m: float

    @property
    def rayleigh_range_m(self) -> float:
        return math.pi * self.waist_radius_m**2 / self.wavelength_m


@dataclass(frozen=True)
class AtmosphereModel:
    """Clear-air/haze/fog extinction parameterized by meteorological visibility.

    visibility_m may be math.inf for a lossless path.
    """

    visibility_m: float
    wavelength_m: float


@dataclass(frozen=True)
class CouplingModel:
    """Single-mode-fiber coupling: flat base loss plus quadratic-in-dB rolloff.

    rolloff_halfwidth_rad is the radial pointing error at which the coupling
    penalty reaches one neper (+4.343 dB) above base.
    """

    base_coupling_loss_db: float
    rolloff_halfwidth_rad: float


@dataclass(frozen=True)
class LinkBudget:
    """Additive dB budget at one distance or an array of them, and one
    radial pointing error or an array of them.  The terms that depend on
    distance have its shape, the jitter term has the errors' shape (numpy
    floats for scalars), and the sums broadcast the two."""

    diffraction_db: float | np.ndarray
    optics_db: float
    atmosphere_db: float | np.ndarray
    coupling_base_db: float
    jitter_excess_db: float | np.ndarray

    @property
    def static_db(self) -> float | np.ndarray:
        """The propagation-path loss: diffraction plus optics insertion plus atmosphere."""
        return self.diffraction_db + self.optics_db + self.atmosphere_db

    @property
    def total_db(self) -> float | np.ndarray:
        """The exact sum of the five terms, left to right."""
        return self.static_db + self.coupling_base_db + self.jitter_excess_db


# The term helpers below take inputs that link_budget has checked.

def _beam_radius_m(waist_radius_m: float, rayleigh_range_m: float, distance_m: float) -> float:
    """1/e^2 intensity radius after propagating distance_m."""
    return waist_radius_m * math.sqrt(1.0 + (distance_m / rayleigh_range_m) ** 2)


def _diffraction_db(beam: BeamModel, antenna: AntennaSpec,
                    distances_m: list[float]) -> list[float]:
    """Geometric capture loss of the expanded beam at the receive aperture,
    at each distance.

    Both terminals carry `antenna`.  The captured power fraction of a
    Gaussian of radius w(z) over a circular aperture of radius a is
    1 - exp(-2 a^2 / w(z)^2).  At distance 0 all transmitted power is inside
    the (co-located) aperture and the loss is 0 by convention.
    """
    # the beam's constants, computed once for every distance
    waist, rayleigh = beam.waist_radius_m, beam.rayleigh_range_m
    a = antenna.aperture_radius_m
    losses = []
    for distance_m in distances_m:
        if distance_m == 0.0:
            losses.append(0.0)
            continue
        try:
            w = _beam_radius_m(waist, rayleigh, distance_m)
            captured = 1.0 - math.exp(-2.0 * a * a / (w * w))
        except OverflowError:  # the beam radius overflows
            captured = 0.0
        if captured == 0.0:
            # so far out that the captured fraction rounds to 0: the loss in
            # dB overflows, as the beam radius does a little further out
            raise OverflowError(f"distance_m={distance_m} is beyond the range of the beam model")
        losses.append(-10.0 * math.log10(captured))
    return losses


def _kim_size_exponent(visibility_m: float) -> float:
    """Particle-size exponent q of the Kim visibility model (piecewise in V)."""
    v_km = visibility_m / 1000.0
    if v_km > 50.0:
        return 1.6
    if v_km > 6.0:
        return 1.3
    if v_km > 1.0:
        return 0.16 * v_km + 0.34
    if v_km > 0.5:
        return v_km - 0.5
    return 0.0


def _atmosphere_db(atm: AtmosphereModel, distance_m: np.ndarray) -> np.ndarray:
    """Kim-model extinction over the path, in dB.

    beta = (3.912 / V_km) (lambda_nm / 550)^-q  [1/km], loss = 4.343 beta d.
    """
    if math.isinf(atm.visibility_m):
        return 0.0 * distance_m
    v_km = atm.visibility_m / 1000.0
    lam_nm = atm.wavelength_m * 1e9
    q = _kim_size_exponent(atm.visibility_m)
    beta_per_km = (3.912 / v_km) * (lam_nm / _KIM_REFERENCE_NM) ** (-q)
    return DB_PER_NEPER * beta_per_km * (distance_m / 1000.0)


def link_budget(scenario: "Scenario", distance_m: float | np.ndarray,
                radial_error_rad: float | np.ndarray = 0.0) -> LinkBudget:
    """Full additive budget of `scenario` at a distance and a radial pointing
    error; either may be an array, and total_db broadcasts the two.

    The jitter excess is the coupling penalty above the base loss,
    (base + 4.343 (err / theta_c)^2) - base: a Gaussian overlap in dB.  The
    diffraction term is computed element by element on floats, so it has
    the bits of libm's exp and log10; the other terms and the sums are
    + - * / and round as they would on Python floats.

    Raises ValueError if any distance or error is negative or NaN;
    OverflowError, naming distance_m, if any distance is beyond the range
    of the beam model.
    """
    beam, antenna, coupling = scenario.beam, scenario.antenna, scenario.coupling
    distances = np.asarray(distance_m, dtype=float)
    errors = np.asarray(radial_error_rad, dtype=float)
    # not (x >= 0) also holds for NaN
    if not (distances >= 0.0).all():
        raise ValueError("distance_m must be >= 0")
    if not (errors >= 0.0).all():
        raise ValueError("radial_error_rad must be >= 0")
    diffraction = np.array(_diffraction_db(beam, antenna, distances.ravel().tolist()))
    base = coupling.base_coupling_loss_db
    with np.errstate(over="ignore"):  # a huge error's excess is inf, as on floats
        ratio = errors / coupling.rolloff_halfwidth_rad
        jitter = (base + DB_PER_NEPER * ratio * ratio) - base
    return LinkBudget(
        diffraction_db=diffraction.reshape(distances.shape)[()],  # [()]: 0-d to a numpy float
        optics_db=2.0 * antenna.insertion_loss_db,  # both terminals carry `antenna`
        atmosphere_db=_atmosphere_db(scenario.atmosphere, distances),
        coupling_base_db=base,
        jitter_excess_db=jitter,
    )


def distance_sweep(scenario: "Scenario", d_min_m: float, d_max_m: float,
                   steps: int) -> np.ndarray:
    """A (steps, 3) array of rows (distance_m, diffraction_db, total_static_db).

    total_static_db is the budget's static_db, the propagation-path loss.
    Receiver-side fiber-coupling terms and the pointing-jitter excess are
    excluded; they do not depend on distance.  Distances are linearly
    spaced, endpoints included.

    Raises ValueError unless 0 < d_min_m <= d_max_m < inf, and, naming `steps`,
    for fewer than 2 steps or a table that would not fit in memory;
    OverflowError if d_max_m is beyond the range of the beam model.
    """
    # before the distances are built: an infinite bound makes a NaN distance
    if not (0.0 < d_min_m <= d_max_m < math.inf):
        raise ValueError("require 0 < d_min_m <= d_max_m < inf")
    if steps < 2:
        raise ValueError("steps must be >= 2")
    # bytes per row: under tracemalloc, distance_sweep and the CSV writer
    # peaked 50.4 MB higher on 1e6 rows than on 1e5 rows
    _check_fits("steps", steps, "rows", 56)
    with np.errstate(over="ignore"):  # a distance that overflows raises OverflowError below
        distances = d_min_m + (d_max_m - d_min_m) * np.arange(steps) / (steps - 1)
    budget = link_budget(scenario, distances)
    return np.column_stack((distances, budget.diffraction_db, budget.static_db))
