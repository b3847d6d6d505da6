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

The base motion's noise term is white Gaussian noise shaped by a 4th-order
Butterworth low-pass.  Its design and its filter are scipy.signal.butter's
and lfilter's, step for step, in numpy and native floats: they carry
scipy's bits without loading scipy.signal.  The filter runs at about
0.25 us per sample per axis; the design and the white-noise gain are
computed once per bandwidth.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy  # unused here: only perfbench's traced import metric reads it off the import log

# common rate of every loop, camera frame and disturbance sample
TICK_RATE_HZ = 1000.0
# standard normal draws made at a time to step a generator past draws it drops
_SKIP_BLOCK = 8192
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


@dataclass(frozen=True)
class FsmSpec:
    """Fast steering mirror stage; deflection is the line-of-sight correction."""

    range_rad: float
    bandwidth_hz: float


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


@dataclass(frozen=True)
class BeaconSpec:
    """Hard-edged beacon cone; divergence is the full cone angle."""

    wavelength_m: float
    divergence_full_angle_rad: float


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


@dataclass(frozen=True)
class DisturbanceProfile:
    pitch: AxisDisturbance
    azimuth: AxisDisturbance


def _sinusoid_series(axis: AxisDisturbance, t_s: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t_s)
    for comp in axis.sinusoids:
        out += comp.amplitude_rad * np.sin(2.0 * math.pi * comp.frequency_hz * t_s + comp.phase_rad)
    return out


# the order-4 noise filter at rest: scipy.signal.lfiltic(b, a, [0], [0])
_ZERO_STATE = (0.0, 0.0, 0.0, 0.0)


def _butterworth_lowpass(bandwidth_hz: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(b, a) of the order-4 digital Butterworth low-pass with its corner at bandwidth_hz.

    The steps of scipy.signal.butter(4, bandwidth_hz, fs=TICK_RATE_HZ) in
    scipy's own numpy operations (analog prototype poles, pre-warp,
    lp2lp_zpk, bilinear_zpk, zpk2tf), so b and a carry the same bits.
    """
    order = 4
    wn = np.float64(bandwidth_hz) / (TICK_RATE_HZ / 2)
    # analog prototype: poles on the unit circle's left half, gain 1
    m = np.arange(-order + 1, order, 2, dtype=np.float64)
    p = -np.exp(1j * np.pi * m / (2 * order))
    # pre-warp the corner for the bilinear transform at fs = 2
    fs2 = 4.0
    wo = float(fs2 * np.tan(np.pi * wn / 2.0))
    p = wo * p
    k = wo**order
    # bilinear transform: all zeros at Nyquist, gain compensated
    p_z = (fs2 + p) / (fs2 - p)
    k = k * np.real(np.float64(1.0) / np.prod(fs2 - p))
    # zpk2tf: b is np.poly of four zeros at -1, a is np.poly of the poles,
    # real because they come in conjugate pairs
    b = k * np.array([1.0, 4.0, 6.0, 4.0, 1.0])
    a = np.ones(1, dtype=np.complex128)
    for pole in p_z:
        a = np.convolve(a, np.array([1.0, -pole]))
    return tuple(b.tolist()), tuple(a.real.tolist())


def _lfilter(b: tuple[float, ...], a: tuple[float, ...], x: np.ndarray,
             state: tuple[float, ...]) -> tuple[np.ndarray, tuple[float, ...]]:
    """(y, final state) of the order-4 Butterworth low-pass b/a on x from state.

    Direct form II transposed in scipy.signal.lfilter's operation order, on
    native floats, so y and the state carry lfilter's bits (a[0] is 1).
    The numerator is k * (1, 4, 6, 4, 1), so x * b[3] is x * b[1] and
    x * b[4] is x * b[0], bit for bit: each is computed once.
    """
    b0, b1, b2, _, _ = b
    _, a1, a2, a3, a4 = a
    z0, z1, z2, z3 = state
    y = np.empty(len(x))
    out = memoryview(y)
    for i, xi in enumerate(memoryview(x)):
        p0 = xi * b0
        p1 = xi * b1
        yi = z0 + p0
        z0 = (z1 + p1) - yi * a1
        z1 = (z2 + xi * b2) - yi * a2
        z2 = (z3 + p1) - yi * a3
        z3 = p0 - yi * a4
        out[i] = yi
    return y, (z0, z1, z2, z3)


@functools.lru_cache(maxsize=64)
def _noise_filter(bandwidth_hz: float) -> tuple[tuple[float, ...], tuple[float, ...], float]:
    """(b, a, white-noise gain) of the noise filter, computed once per bandwidth."""
    b, a = _butterworth_lowpass(bandwidth_hz)
    # white-noise gain of the filter: sqrt(sum h^2) from the impulse response
    impulse = np.zeros(max(64, int(20.0 * TICK_RATE_HZ / bandwidth_hz)))
    impulse[0] = 1.0
    h, _ = _lfilter(b, a, impulse, _ZERO_STATE)
    return b, a, math.sqrt(float(np.sum(h * h)))


def _past_normals(rng: np.random.Generator, n: int) -> np.random.Generator:
    """A copy of rng whose next draws follow rng.standard_normal(n): it draws
    and drops them _SKIP_BLOCK at a time, the same values as in one call."""
    rng = copy.deepcopy(rng)
    for lo in range(0, n, _SKIP_BLOCK):
        rng.standard_normal(min(_SKIP_BLOCK, n - lo))
    return rng


class DisturbanceGenerator:
    """Deterministic base-motion source for one run, sampled at TICK_RATE_HZ.

    The noise term is white Gaussian shaped by a 4th-order Butterworth
    low-pass at the configured bandwidth and rescaled so its steady-state
    rms matches the configured value.  The filter is warmed up before t=0
    so the process is stationary from the first sample, and its state
    carries from one `series` call to the next.

    `n` is the number of samples all `series` calls make together, and
    `rng` holds them in the layout of the `apt` module's Determinism
    section: calls of k1, k2, ... samples (k1 + k2 + ... = n) give the bits
    of one series(n) call, each call starting where the last ended.
    """

    def __init__(self, profile: DisturbanceProfile, rng: np.random.Generator, n: int):
        self.profile = profile
        self._filters = {}
        for name, axis in (("pitch", profile.pitch), ("azimuth", profile.azimuth)):
            if axis.noise_bandwidth_hz > MAX_NOISE_BANDWIDTH_FRACTION * TICK_RATE_HZ:
                raise ValueError(
                    f"{name} noise_bandwidth_hz {axis.noise_bandwidth_hz:g} exceeds "
                    f"{MAX_NOISE_BANDWIDTH_FRACTION:g} x the {TICK_RATE_HZ:g} Hz sample rate")
            self._filters[name] = self._make_filter(axis, rng)
        # the generator each axis draws its noise from (a still axis draws none)
        self._rngs = {"pitch": rng, "azimuth": (
            rng if self._filters["pitch"] is None else _past_normals(rng, n))}
        self._n = n
        self._left = n  # samples the calls to come may still make

    @staticmethod
    def _make_filter(axis: AxisDisturbance, rng: np.random.Generator):
        if axis.noise_rms_rad == 0.0:
            return None
        bw = axis.noise_bandwidth_hz
        b, a, gain = _noise_filter(bw)
        scale = axis.noise_rms_rad / gain
        # warm up the filter state on pre-roll noise so t=0 is stationary
        warmup = min(int(6.0 * TICK_RATE_HZ / bw), 60_000)
        _, state = _lfilter(b, a, scale * rng.standard_normal(warmup), _ZERO_STATE)
        return (b, a, scale, state)

    def _noise_series(self, name: str, n: int) -> np.ndarray:
        filt = self._filters[name]
        if filt is None:
            return np.zeros(n)
        b, a, scale, state = filt
        out, state = _lfilter(b, a, scale * self._rngs[name].standard_normal(n), state)
        self._filters[name] = (b, a, scale, state)
        return out

    def series(self, n_samples: int, t0_s: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """(pitch, azimuth) base-angle arrays for the n_samples samples after
        those the past calls made, sample k at t0_s + k / TICK_RATE_HZ.
        Raises ValueError when this call would take the samples made in all
        past n: pitch would draw its noise on into azimuth's."""
        if n_samples > self._left:
            raise ValueError(f"series of {n_samples} samples goes past the generator's n: "
                             f"{self._left} samples left")
        start = self._n - self._left
        self._left -= n_samples
        t = t0_s + np.arange(start, start + n_samples) / TICK_RATE_HZ
        pitch = _sinusoid_series(self.profile.pitch, t) + self._noise_series("pitch", n_samples)
        az = _sinusoid_series(self.profile.azimuth, t) + self._noise_series("azimuth", n_samples)
        return pitch, az
