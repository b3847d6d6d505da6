import copy

import pytest

from fsosim import default_scenario, resolve_scenario
from fsosim.scenario import DEFAULTS


@pytest.fixture(scope="session")
def scenario():
    return default_scenario()


def make_scenario(**overrides):
    """Resolved scenario from the defaults with dotted-path overrides.

    make_scenario(**{"cmos0.centroid_noise_urad": 0.0}) patches one leaf.
    """
    raw = copy.deepcopy(DEFAULTS)
    for dotted, value in overrides.items():
        node = raw
        *parents, leaf = dotted.split(".")
        for key in parents:
            node = node[key]
        node[leaf] = value
    return resolve_scenario(raw)


def zero_noise_overrides():
    """Overrides that remove every stochastic term from the defaults."""
    return {
        "cmos0.centroid_noise_urad": 0.0,
        "cmos1.centroid_noise_urad": 0.0,
        "cmos2.centroid_noise_urad": 0.0,
        "imu.rate_noise_urad_s": 0.0,
        "disturbance.pitch.noise_rms_urad": 0.0,
        "disturbance.azimuth.noise_rms_urad": 0.0,
        "disturbance.pitch.sinusoids": [],
        "disturbance.azimuth.sinusoids": [],
    }


@pytest.fixture(scope="session")
def zero_noise_scenario():
    return make_scenario(**zero_noise_overrides())


def sinusoid(amplitude_urad, frequency_hz, phase_deg=0.0):
    """One-entry `disturbance.<axis>.sinusoids` list."""
    return [{"amplitude_urad": amplitude_urad, "frequency_hz": frequency_hz,
             "phase_deg": phase_deg}]


def fsm_saturation_scenario():
    """Defaults with mirror ranges (20 / 10 urad) that the seeded loop overdrives.

    Run from Linked (seed 3, 20 s), both mirrors hit both stops on both axes.
    The anti-windup bound alone would hold each integral command at the
    range; the added proportional gain pushes commands past it, so the
    mirror range clamp itself must act.
    """
    return make_scenario(**{"fsm1.range_urad": 20.0, "fsm2.range_urad": 10.0,
                            "control.fsm1.kp": 1.0, "control.fsm2.kp": 1.0})


def gimbal_saturation_scenario():
    """Gimbal ranges (0.5 / 0.3 deg) smaller than the base motion it follows.

    Per axis, a slow 0.5 Hz swing (20 mrad azimuth, 10 mrad pitch) drives
    both range stops and a 10 mrad shake (17 Hz azimuth, 20 Hz pitch) drives
    the slew limit both ways (seed 1, 10 s).
    """
    return make_scenario(**{
        "gimbal.azimuth_range_deg": 0.5,
        "gimbal.pitch_range_deg": 0.3,
        "disturbance.azimuth.sinusoids": sinusoid(20_000.0, 0.5) + sinusoid(10_000.0, 17.0),
        "disturbance.pitch.sinusoids": sinusoid(10_000.0, 0.5, 90.0) + sinusoid(10_000.0, 20.0),
    })
