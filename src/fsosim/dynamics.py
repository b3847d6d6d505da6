"""Plant parameters for the tracking simulation, and platform motion.

Holds the actuator and sensor specs (gimbal, steering mirrors, cameras,
IMU, beacons), the first-order lag gain, and the base-motion generator.
The per-tick plant itself (lags, slew and range clamps, camera gating and
quantization, the beacon cone) runs inline in `apt.run_apt`.

Axes follow the mount convention: `pitch` tilts the line of sight vertically,
`azimuth` rotates it horizontally.  All angles are radians, rates rad/s.

Actuators are first-order lags toward their command.  The discrete update
uses the exact exponential step, so a small-step response reaches 63.2% of
the command after 1/(2 pi bandwidth) seconds regardless of dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy  # not scipy.signal, which loads on first use; keeps perfbench's scipy import line

# common rate of every loop, camera frame and disturbance sample
TICK_RATE_HZ = 1000.0
# the largest disturbance noise bandwidth, as a fraction of the sample rate:
# the Butterworth design needs a corner below Nyquist
MAX_NOISE_BANDWIDTH_FRACTION = 0.45


# ---------------------------------------------------------------------------
# actuators

@dataclass(frozen=True)
class GimbalSpec:
    """Two-axis coarse gimbal."""

    azimuth_range_rad: float  # +/- about boresight
    pitch_range_rad: float
    bandwidth_hz: float
    max_rate_rad_s: float

    def __post_init__(self) -> None:
        if min(self.azimuth_range_rad, self.pitch_range_rad) <= 0.0:
            raise ValueError("gimbal ranges must be positive")
        if self.bandwidth_hz <= 0.0 or self.max_rate_rad_s <= 0.0:
            raise ValueError("bandwidth_hz and max_rate_rad_s must be positive")


@dataclass(frozen=True)
class FsmSpec:
    """Fast steering mirror stage; deflection is the line-of-sight correction."""

    range_rad: float
    bandwidth_hz: float

    def __post_init__(self) -> None:
        if self.range_rad <= 0.0 or self.bandwidth_hz <= 0.0:
            raise ValueError("range_rad and bandwidth_hz must be positive")


def lag_alpha(bandwidth_hz: float, dt_s: float) -> float:
    """Exact discrete gain of a first-order lag with the given bandwidth."""
    return 1.0 - math.exp(-2.0 * math.pi * bandwidth_hz * dt_s)


# ---------------------------------------------------------------------------
# sensors

@dataclass(frozen=True)
class CmosSpec:
    """Centroid camera.  Pixel pitch is FOV / pixels per axis."""

    fov_pitch_rad: float
    fov_azimuth_rad: float
    pixels: int
    centroid_noise_rad: float

    def __post_init__(self) -> None:
        if min(self.fov_pitch_rad, self.fov_azimuth_rad) <= 0.0:
            raise ValueError("fields of view must be positive")
        if self.pixels <= 0:
            raise ValueError("pixels must be positive")
        if self.centroid_noise_rad < 0.0:
            raise ValueError("centroid_noise_rad must be >= 0")

    @property
    def pixel_pitch_pitch_rad(self) -> float:
        return self.fov_pitch_rad / self.pixels

    @property
    def pixel_pitch_azimuth_rad(self) -> float:
        return self.fov_azimuth_rad / self.pixels


@dataclass(frozen=True)
class ImuSpec:
    """Angular-rate sensor used for platform stabilization feedforward."""

    rate_noise_rad_s: float

    def __post_init__(self) -> None:
        if self.rate_noise_rad_s < 0.0:
            raise ValueError("rate_noise_rad_s must be >= 0")


@dataclass(frozen=True)
class BeaconSpec:
    """Hard-edged beacon cone; divergence is the full cone angle."""

    wavelength_m: float
    divergence_full_angle_rad: float

    def __post_init__(self) -> None:
        if self.wavelength_m <= 0.0 or self.divergence_full_angle_rad <= 0.0:
            raise ValueError("beacon parameters must be positive")


# ---------------------------------------------------------------------------
# platform disturbance

@dataclass(frozen=True)
class SinusoidComponent:
    amplitude_rad: float
    frequency_hz: float
    phase_rad: float


@dataclass(frozen=True)
class AxisDisturbance:
    sinusoids: tuple[SinusoidComponent, ...]
    noise_rms_rad: float
    noise_bandwidth_hz: float

    def __post_init__(self) -> None:
        if self.noise_rms_rad < 0.0:
            raise ValueError("noise_rms_rad must be >= 0")
        if self.noise_bandwidth_hz <= 0.0:
            raise ValueError("noise_bandwidth_hz must be positive")


@dataclass(frozen=True)
class DisturbanceProfile:
    pitch: AxisDisturbance
    azimuth: AxisDisturbance


def _sinusoid_series(axis: AxisDisturbance, t_s: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t_s)
    for comp in axis.sinusoids:
        out += comp.amplitude_rad * np.sin(2.0 * math.pi * comp.frequency_hz * t_s + comp.phase_rad)
    return out


class DisturbanceGenerator:
    """Deterministic base-motion source for one run, sampled at TICK_RATE_HZ.

    The noise term is white Gaussian shaped by a 4th-order Butterworth
    low-pass at the configured bandwidth and rescaled so its steady-state
    rms matches the configured value.  The filter is warmed up before t=0
    so the process is stationary from the first sample.
    """

    def __init__(self, profile: DisturbanceProfile, rng: np.random.Generator):
        self.profile = profile
        self._rng = rng
        self._filters = {}
        for name, axis in (("pitch", profile.pitch), ("azimuth", profile.azimuth)):
            if axis.noise_bandwidth_hz > MAX_NOISE_BANDWIDTH_FRACTION * TICK_RATE_HZ:
                raise ValueError(
                    f"{name} noise_bandwidth_hz {axis.noise_bandwidth_hz:g} exceeds "
                    f"{MAX_NOISE_BANDWIDTH_FRACTION:g} x the {TICK_RATE_HZ:g} Hz sample rate")
            self._filters[name] = self._make_filter(axis)

    def _make_filter(self, axis: AxisDisturbance):
        if axis.noise_rms_rad == 0.0:
            return None
        bw = axis.noise_bandwidth_hz
        b, a = scipy.signal.butter(4, bw, fs=TICK_RATE_HZ)
        # white-noise gain of the filter: sqrt(sum h^2) from the impulse response
        impulse_len = max(64, int(20.0 * TICK_RATE_HZ / bw))
        impulse = np.zeros(impulse_len)
        impulse[0] = 1.0
        h = scipy.signal.lfilter(b, a, impulse)
        gain = math.sqrt(float(np.sum(h * h)))
        scale = axis.noise_rms_rad / gain
        # warm up the filter state on pre-roll noise so t=0 is stationary
        warmup = min(int(6.0 * TICK_RATE_HZ / bw), 60_000)
        zi = scipy.signal.lfiltic(b, a, [0.0], [0.0])
        if warmup > 0:
            _, zi = scipy.signal.lfilter(b, a, scale * self._rng.standard_normal(warmup), zi=zi)
        return (b, a, scale, zi)

    def _noise_series(self, name: str, n: int) -> np.ndarray:
        filt = self._filters[name]
        if filt is None:
            return np.zeros(n)
        b, a, scale, zi = filt
        out, zi = scipy.signal.lfilter(b, a, scale * self._rng.standard_normal(n), zi=zi)
        self._filters[name] = (b, a, scale, zi)
        return out

    def series(self, n_samples: int, t0_s: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """(pitch, azimuth) base-angle arrays for n_samples consecutive ticks."""
        t = t0_s + np.arange(n_samples) / TICK_RATE_HZ
        pitch = _sinusoid_series(self.profile.pitch, t) + self._noise_series("pitch", n_samples)
        az = _sinusoid_series(self.profile.azimuth, t) + self._noise_series("azimuth", n_samples)
        return pitch, az

