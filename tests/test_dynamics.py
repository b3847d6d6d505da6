"""Plant checks, each read back from `run_apt`, the one loop that runs.

The gimbal and mirror lags with their slew and range clamps, the camera
gate, quantization and FOV clamp, the beacon cones and the IMU feedforward
all run inline in the 1 kHz loop.  Three exact identities expose them in
the `TrackingSeries` arrays:

- With coarse gains kp only (ki = kd = 0) the gimbal command is
  g + kp * m0, so in CoarseTrack each tick's gimbal move is
  alpha * kp * m0: it recovers the coarse camera reading m0.
- With both fine stages off the mirrors stay at exactly 0, so `error_*`
  is the coarse error e0, which the cameras see one tick later.
- Outside the tracking states, with ki > 0, the gimbal command is the
  integrated IMU rate ff, so ff = g_prev + move / alpha.

The disturbance's Butterworth design and filter are checked bit for bit
against scipy.signal, which only these tests import.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from fsosim import (
    AptState,
    AxisDisturbance,
    CmosSpec,
    DisturbanceGenerator,
    DisturbanceProfile,
    ScenarioError,
    SinusoidComponent,
    component_rng,
    run_apt,
)
from fsosim import dynamics
from fsosim.apt import TICK_RATE_HZ
from fsosim.dynamics import lag_alpha

from conftest import (
    fsm_saturation_scenario,
    gimbal_saturation_scenario,
    make_scenario,
    sinusoid,
    zero_noise_overrides,
)

DT = 1.0 / TICK_RATE_HZ
COARSE = int(AptState.COARSE_TRACK)


def moves(angles):
    """Per-tick actuator moves; every actuator starts at rest at 0."""
    return np.diff(angles, prepend=0.0)


def coarse_p_scenario(**overrides):
    """Noise-free, coarse-only scenario whose gimbal loop is kp = 0.5 only."""
    raw = zero_noise_overrides()
    raw.update({
        "control.coarse.kp": 0.5, "control.coarse.ki": 0.0, "control.coarse.kd": 0.0,
        "apt.fine1_enabled": False, "apt.fine2_enabled": False,
    })
    raw.update(overrides)
    return make_scenario(**raw)


def coarse_readings(scenario, series):
    """Coarse camera readings (pitch, azimuth) recovered from gimbal moves."""
    gain = lag_alpha(scenario.gimbal.bandwidth_hz, DT) * scenario.gains_coarse.kp
    return moves(series.gimbal_pitch_rad) / gain, moves(series.gimbal_azimuth_rad) / gain


def seen_errors(scenario, series):
    """Error each tick's cameras see: the previous tick's (the bias at tick 0)."""
    bias = scenario.apt.acquisition_bias_rad / math.sqrt(2.0)
    return (np.r_[bias, series.error_pitch_rad[:-1]],
            np.r_[bias, series.error_azimuth_rad[:-1]])


def round_half_away(x):
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def first_readings(offset_urad, **overrides):
    """Coarse readings of one offset on both axes, taken on tick 1 of a 2-tick run.

    Zero bias leaves the gimbal at rest on tick 0.  A 1e-9 Hz sinusoid at
    +/-90 deg phase is a base offset of exactly +/- its amplitude, which is
    the error tick 1 sees.  Returns (reading, seen error, pixel pitch) for
    pitch, then azimuth.
    """
    constant = sinusoid(abs(offset_urad), 1e-9, math.copysign(90.0, offset_urad))
    raw = zero_noise_overrides()
    raw.update({
        "control.coarse.kp": 1.0, "control.coarse.ki": 0.0, "control.coarse.kd": 0.0,
        "apt.fine1_enabled": False, "apt.fine2_enabled": False,
        "apt.acquisition_bias_urad": 0.0,
        "gimbal.max_rate_deg_s": 1000.0,
        "beacons.bl0.divergence_mrad": 100.0,
        "disturbance.pitch.sinusoids": constant,
        "disturbance.azimuth.sinusoids": constant,
    })
    raw.update(overrides)
    sc = make_scenario(**raw)
    series = run_apt(sc, 2 * DT, seed=0, initial_state=AptState.COARSE_TRACK)
    assert series.gimbal_pitch_rad[0] == series.gimbal_azimuth_rad[0] == 0.0
    assert (series.state == COARSE).all()
    return list(zip([reading[1] for reading in coarse_readings(sc, series)],
                    (series.error_pitch_rad[0], series.error_azimuth_rad[0]),
                    (sc.cmos0.pixel_pitch_pitch_rad, sc.cmos0.pixel_pitch_azimuth_rad)))


def never_locking_scenario(**overrides):
    """Defaults with a 1 mrad bl0 half-cone inside the 2 mrad acquisition bias.

    The coarse camera never locks, so the gimbal follows the IMU
    feedforward alone.
    """
    return make_scenario(**{"beacons.bl0.divergence_mrad": 2.0, **overrides})


def imu_rates(scenario, series):
    """(measured, true) base rates per axis.

    The measured rate is recovered from the feedforward-driven gimbal.  The
    true rate comes from the run's own disturbance stream.
    """
    alpha = lag_alpha(scenario.gimbal.bandwidth_hz, DT)
    gen = DisturbanceGenerator(scenario.disturbance,
                               component_rng(series.seed, "disturbance"), len(series) + 1)
    base = gen.series(len(series) + 1, t0_s=-DT)
    out = []
    for gimbal, truth in zip((series.gimbal_pitch_rad, series.gimbal_azimuth_rad), base):
        previous = np.r_[0.0, gimbal[:-1]]
        feedforward = previous + (gimbal - previous) / alpha
        out.append((moves(feedforward) / DT, np.diff(truth) / DT))
    return out


@pytest.fixture(scope="module")
def gimbal_run():
    sc = gimbal_saturation_scenario()
    return sc, run_apt(sc, 10.0, seed=1)


@pytest.fixture(scope="module")
def coarse_p_run():
    sc = coarse_p_scenario()
    return sc, run_apt(sc, 5.0, seed=0)


class TestFirstOrderLag:
    def test_one_time_constant_reaches_63_percent(self):
        bw = 20.0
        tau = 1.0 / (2.0 * math.pi * bw)
        assert lag_alpha(bw, tau) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)

    def test_two_half_steps_equal_one_full_step(self):
        # the exponential update is exact, so step size must not matter
        bw = 37.0
        half = lag_alpha(bw, DT / 2)
        assert 1.0 - (1.0 - half) ** 2 == pytest.approx(lag_alpha(bw, DT), rel=1e-12)

    def test_move_clamped_to_max_delta(self, gimbal_run):
        sc, series = gimbal_run
        max_move = sc.gimbal.max_rate_rad_s * DT
        for axis in (series.gimbal_azimuth_rad, series.gimbal_pitch_rad):
            assert moves(axis).max() == pytest.approx(max_move, rel=1e-12)
            assert moves(axis).min() == pytest.approx(-max_move, rel=1e-12)


class TestGimbal:
    def test_rate_limit_respected(self, gimbal_run):
        sc, series = gimbal_run
        max_move = sc.gimbal.max_rate_rad_s * DT
        assert np.abs(moves(series.gimbal_azimuth_rad)).max() <= max_move + 1e-15
        assert np.abs(moves(series.gimbal_pitch_rad)).max() <= max_move + 1e-15

    def test_range_limits_hold_under_random_commands(self, gimbal_run):
        # each axis reaches both stops exactly and never passes them
        sc, series = gimbal_run
        for axis, limit in ((series.gimbal_azimuth_rad, sc.gimbal.azimuth_range_rad),
                            (series.gimbal_pitch_rad, sc.gimbal.pitch_range_rad)):
            assert axis.max() == limit
            assert axis.min() == -limit

    def test_converges_to_command(self, coarse_p_run):
        # the P loop steers onto the bias and stops inside half a pixel
        sc, series = coarse_p_run
        target = sc.apt.acquisition_bias_rad / math.sqrt(2.0)
        tail = series.window(4.0, 5.0)
        for axis, pixel in ((tail.gimbal_pitch_rad, sc.cmos0.pixel_pitch_pitch_rad),
                            (tail.gimbal_azimuth_rad, sc.cmos0.pixel_pitch_azimuth_rad)):
            assert np.all(axis == axis[-1])
            assert abs(axis[-1] - target) < 0.5 * pixel


class TestFsm:
    def test_deflection_never_exceeds_range(self):
        # each mirror axis reaches both stops exactly and never passes them
        sc = fsm_saturation_scenario()
        series = run_apt(sc, 20.0, seed=3, initial_state=AptState.LINKED)
        for axis, limit in ((series.fsm1_pitch_rad, sc.fsm1.range_rad),
                            (series.fsm1_azimuth_rad, sc.fsm1.range_rad),
                            (series.fsm2_pitch_rad, sc.fsm2.range_rad),
                            (series.fsm2_azimuth_rad, sc.fsm2.range_rad)):
            assert axis.max() == limit
            assert axis.min() == -limit

    def test_tracks_small_command(self):
        # gimbal held at rest: FSM1 alone nulls a 100 urad offset to within
        # half a fine-camera pixel and holds there
        sc = make_scenario(**zero_noise_overrides(), **{
            "control.coarse.ki": 0.0, "apt.acquisition_bias_urad": 100.0})
        series = run_apt(sc, 1.0, seed=0, enable_fine2=False,
                         initial_state=AptState.FINE_TRACK1)
        assert np.all(series.gimbal_pitch_rad == 0.0)
        assert np.all(series.state == int(AptState.FINE_TRACK1))
        offset = sc.apt.acquisition_bias_rad / math.sqrt(2.0)
        tail = series.window(0.8, 1.0)
        for axis, pixel in ((tail.fsm1_pitch_rad, sc.cmos1.pixel_pitch_pitch_rad),
                            (tail.fsm1_azimuth_rad, sc.cmos1.pixel_pitch_azimuth_rad)):
            assert np.all(axis == axis[-1])
            assert abs(axis[-1] - offset) < 0.5 * pixel


def exact_half_pixel_offsets(count):
    """Offsets (urad) whose resolved value is exactly (k + 1/2) coarse pixels."""
    pixel = make_scenario().cmos0.pixel_pitch_pitch_rad
    found = []
    for k in range(100):
        amplitude_urad = (k + 0.5) * pixel * 1e6
        if amplitude_urad * 1e-6 / pixel == k + 0.5:
            found.append((k, amplitude_urad))
    assert len(found) >= count
    return found[:count]


class TestQuantization:
    def test_halves_round_away_from_zero(self):
        for k, offset_urad in exact_half_pixel_offsets(3):
            for sign in (1.0, -1.0):
                for reading, seen, pixel in first_readings(sign * offset_urad):
                    assert seen / pixel == sign * (k + 0.5)
                    assert reading / pixel == pytest.approx(sign * (k + 1), rel=1e-12)

    def test_below_half_rounds_to_zero(self, coarse_p_run):
        pixel = make_scenario().cmos0.pixel_pitch_pitch_rad
        for sign in (1.0, -1.0):
            for reading, _, _ in first_readings(sign * 0.49 * pixel * 1e6):
                assert reading == 0.0
        # the closed loop therefore stops with a residual inside half a pixel
        sc, series = coarse_p_run
        tail = series.window(4.0, 5.0)
        assert np.all(np.abs(tail.error_pitch_rad) < 0.5 * sc.cmos0.pixel_pitch_pitch_rad)
        assert np.all(np.abs(tail.error_azimuth_rad) < 0.5 * sc.cmos0.pixel_pitch_azimuth_rad)
        assert np.all(moves(series.gimbal_pitch_rad)[-1000:] == 0.0)
        assert np.all(moves(series.gimbal_azimuth_rad)[-1000:] == 0.0)

    @given(st.floats(-19e3, 19e3), st.integers(400, 400_000))
    @settings(max_examples=300, deadline=None)
    def test_result_is_pitch_multiple_within_half_pitch(self, offset_urad, pixels):
        for reading, seen, pixel in first_readings(offset_urad, **{"cmos0.pixels": pixels}):
            assert abs(reading - seen) <= 0.5 * pixel * (1.0 + 1e-9)
            assert round(reading / pixel) == pytest.approx(reading / pixel, abs=1e-6)

    def test_nonpositive_pitch_rejected(self):
        # the pixel pitch is FOV / pixels; neither may be non-positive
        with pytest.raises(ValueError):
            CmosSpec(fov_pitch_rad=40e-3, fov_azimuth_rad=40e-3, pixels=0,
                     centroid_noise_rad=0.0)
        with pytest.raises(ValueError):
            CmosSpec(fov_pitch_rad=0.0, fov_azimuth_rad=40e-3, pixels=288,
                     centroid_noise_rad=0.0)
        with pytest.raises(ScenarioError):
            make_scenario(**{"cmos0.pixels": 0})
        with pytest.raises(ScenarioError):
            make_scenario(**{"cmos0.fov_pitch_mrad": 0.0})


class TestCmos:
    def test_invalid_when_beacon_unseen(self):
        # a bl0 half-cone below the acquisition bias never locks
        sc = never_locking_scenario()
        assert 0.5 * sc.beacon_bl0.divergence_full_angle_rad < sc.apt.acquisition_bias_rad
        series = run_apt(sc, 20.0, seed=5)
        assert not series.lock0.any()
        assert series.state.max() == int(AptState.ACQUIRE)

    def test_invalid_outside_fov_either_axis(self):
        # fast base motion the gimbal cannot follow sweeps the error across
        # the +/-20 mrad field on each axis; a 50 mrad bl0 half-cone leaves
        # the field as the only gate
        sc = make_scenario(**{
            **zero_noise_overrides(),
            "apt.fine1_enabled": False, "apt.fine2_enabled": False,
            "beacons.bl0.divergence_mrad": 100.0,
            "disturbance.pitch.sinusoids": sinusoid(25_000.0, 30.0),
            "disturbance.azimuth.sinusoids": sinusoid(25_000.0, 23.0),
        })
        series = run_apt(sc, 4.0, seed=0)
        assert np.all(series.fsm1_pitch_rad == 0.0) and np.all(series.fsm2_azimuth_rad == 0.0)
        seen_p, seen_a = seen_errors(sc, series)
        in_p = np.abs(seen_p) <= 0.5 * sc.cmos0.fov_pitch_rad
        in_a = np.abs(seen_a) <= 0.5 * sc.cmos0.fov_azimuth_rad
        assert np.array_equal(series.lock0, in_p & in_a)
        assert np.any(~in_p & in_a) and np.any(in_p & ~in_a) and np.any(in_p & in_a)

    def test_noiseless_reading_is_quantized_truth(self, coarse_p_run):
        sc, series = coarse_p_run
        tracking = series.state == COARSE
        for reading, seen, pixel in zip(coarse_readings(sc, series), seen_errors(sc, series),
                                        (sc.cmos0.pixel_pitch_pitch_rad,
                                         sc.cmos0.pixel_pitch_azimuth_rad)):
            expected = round_half_away(seen[tracking] / pixel)
            assert np.abs(reading[tracking] / pixel - expected).max() < 1e-9
            assert np.count_nonzero(expected) > 10

    def test_reading_clamped_to_half_fov(self):
        # 50 mrad centroid noise pushes raw readings far past the field
        sc = coarse_p_scenario(**{"cmos0.centroid_noise_urad": 50_000.0,
                                  "gimbal.max_rate_deg_s": 1000.0})
        series = run_apt(sc, 1.0, seed=3)
        assert np.any(series.state == COARSE)
        for reading, half in zip(coarse_readings(sc, series),
                                 (0.5 * sc.cmos0.fov_pitch_rad, 0.5 * sc.cmos0.fov_azimuth_rad)):
            assert np.abs(reading).max() == pytest.approx(half, rel=1e-12)

    def test_noise_level_matches_spec(self):
        # noise far above a pixel so quantization barely biases the std
        sigma_urad = 5 * make_scenario().cmos0.pixel_pitch_pitch_rad * 1e6
        sc = coarse_p_scenario(**{"cmos0.centroid_noise_urad": sigma_urad})
        series = run_apt(sc, 22.0, seed=0)
        tracking = series.state == COARSE
        assert np.count_nonzero(tracking) >= 20_000
        # the run's cmos0 stream draws n pitch samples, then n azimuth samples
        rng = component_rng(series.seed, "cmos0")
        sigma = sc.cmos0.centroid_noise_rad
        for reading, seen, pixel in zip(coarse_readings(sc, series), seen_errors(sc, series),
                                        (sc.cmos0.pixel_pitch_pitch_rad,
                                         sc.cmos0.pixel_pitch_azimuth_rad)):
            noisy = (seen + sigma * rng.standard_normal(len(series)))[tracking]
            expected = round_half_away(noisy / pixel)
            assert np.abs(reading[tracking] / pixel - expected).max() < 1e-9
            assert np.std((reading - seen)[tracking]) == pytest.approx(sigma, rel=0.05)


class TestImuAndBeacon:
    def test_imu_noiseless_returns_truth(self):
        sc = never_locking_scenario(**{"imu.rate_noise_urad_s": 0.0})
        series = run_apt(sc, 20.0, seed=5)
        for measured, truth in imu_rates(sc, series):
            assert np.abs(truth).max() > 1e-3
            assert np.abs(measured - truth).max() < 1e-12

    def test_imu_noise_scale(self):
        sc = never_locking_scenario(**{"imu.rate_noise_urad_s": 30.0})
        series = run_apt(sc, 20.0, seed=5)
        for measured, truth in imu_rates(sc, series):
            assert np.std(measured - truth) == pytest.approx(30e-6, rel=0.05)

    def test_beacon_edge_inclusive(self):
        # gimbal held at rest, so every tick sees the bias: a bl0 half-cone
        # exactly at the bias radius locks, one ulp narrower never does
        raw = zero_noise_overrides()
        raw["control.coarse.ki"] = 0.0
        sc = make_scenario(**raw)
        bias = sc.apt.acquisition_bias_rad / math.sqrt(2.0)
        radius = math.hypot(bias, bias)
        edge_mrad = 2000.0 * radius
        raw["beacons.bl0.divergence_mrad"] = edge_mrad
        edge = make_scenario(**raw)
        assert 0.5 * edge.beacon_bl0.divergence_full_angle_rad == radius
        assert run_apt(edge, 0.2, seed=0).lock0.all()
        raw["beacons.bl0.divergence_mrad"] = float(np.nextafter(edge_mrad, 0.0))
        assert not run_apt(make_scenario(**raw), 0.2, seed=0).lock0.any()

        # inside the field, the cone alone gates the coarse camera
        cone = make_scenario(**{
            **zero_noise_overrides(),
            "apt.fine1_enabled": False, "apt.fine2_enabled": False,
            "disturbance.pitch.sinusoids": sinusoid(15_000.0, 30.0),
            "disturbance.azimuth.sinusoids": sinusoid(15_000.0, 23.0),
        })
        series = run_apt(cone, 4.0, seed=0)
        seen_p, seen_a = seen_errors(cone, series)
        radial = np.array([math.hypot(p, a) for p, a in zip(seen_p, seen_a)])
        assert np.abs(seen_p).max() < 0.5 * cone.cmos0.fov_pitch_rad
        assert np.abs(seen_a).max() < 0.5 * cone.cmos0.fov_azimuth_rad
        inside = radial <= 0.5 * cone.beacon_bl0.divergence_full_angle_rad
        assert np.array_equal(series.lock0, inside)
        assert inside.any() and not inside.all()


def noise_axis(rms_rad, bandwidth_hz):
    """An axis of band-limited noise alone, no sinusoid."""
    return AxisDisturbance(sinusoids=(), noise_rms_rad=rms_rad, noise_bandwidth_hz=bandwidth_hz)


# an axis that does not move
STILL = noise_axis(0.0, 1.0)


class TestDisturbance:
    def test_pure_sinusoid_matches_formula(self):
        profile = DisturbanceProfile(
            pitch=AxisDisturbance(sinusoids=(SinusoidComponent(100e-6, 2.0, math.pi / 3),),
                                  noise_rms_rad=0.0, noise_bandwidth_hz=1.0),
            azimuth=STILL,
        )
        gen = DisturbanceGenerator(profile, np.random.default_rng(0), 5000)
        pitch, az = gen.series(5000)
        t = np.arange(5000) / 1000.0
        expected = 100e-6 * np.sin(2 * math.pi * 2.0 * t + math.pi / 3)
        assert np.allclose(pitch, expected, atol=1e-18)
        assert np.all(az == 0.0)

    def test_noise_rms_matches_spec(self):
        axis = noise_axis(117e-6, 6.0)
        profile = DisturbanceProfile(pitch=axis, azimuth=axis)
        gen = DisturbanceGenerator(profile, np.random.default_rng(5), 400_000)
        pitch, az = gen.series(400_000)
        assert np.sqrt(np.mean(pitch**2)) == pytest.approx(117e-6, rel=0.07)
        assert np.sqrt(np.mean(az**2)) == pytest.approx(117e-6, rel=0.07)

    def test_stationary_from_first_sample(self):
        # warmed-up filter: the first chunk has the same power as a later one
        profile = DisturbanceProfile(pitch=noise_axis(100e-6, 10.0), azimuth=STILL)
        gen = DisturbanceGenerator(profile, np.random.default_rng(9), 200_000)
        pitch, _ = gen.series(200_000)
        head = np.sqrt(np.mean(pitch[:20_000] ** 2))
        tail = np.sqrt(np.mean(pitch[-20_000:] ** 2))
        assert head == pytest.approx(tail, rel=0.25)

    def test_band_limited_spectrum(self):
        profile = DisturbanceProfile(pitch=noise_axis(100e-6, 6.0), azimuth=STILL)
        gen = DisturbanceGenerator(profile, np.random.default_rng(2), 100_000)
        pitch, _ = gen.series(100_000)
        spectrum = np.abs(np.fft.rfft(pitch)) ** 2
        freqs = np.fft.rfftfreq(pitch.size, 1e-3)
        in_band = spectrum[freqs <= 12.0].sum()
        assert in_band / spectrum.sum() > 0.95

    def test_bandwidth_above_ceiling_rejected(self):
        # the Butterworth corner must sit below 0.45 x the sample rate; a wider
        # band raises rather than being capped to it
        wide = DisturbanceProfile(pitch=noise_axis(100e-6, 450.5), azimuth=STILL)
        with pytest.raises(ValueError, match="pitch noise_bandwidth_hz"):
            DisturbanceGenerator(wide, np.random.default_rng(0), 1000)
        edge = DisturbanceProfile(pitch=noise_axis(100e-6, 450.0), azimuth=STILL)
        pitch, _ = DisturbanceGenerator(edge, np.random.default_rng(0), 1000).series(1000)
        assert np.isfinite(pitch).all() and pitch.any()

    @pytest.mark.parametrize("still", [(), ("pitch",), ("azimuth",), ("pitch", "azimuth")],
                             ids=["noisy", "still_pitch", "still_azimuth", "still"])
    def test_blocks_of_a_generator_told_n_are_one_call(self, still):
        # a generator draws azimuth's noise from past pitch's n draws (from
        # where pitch's would be, when pitch is still), so blocks, each
        # starting where the last ended, give the bits of one series(n) call
        def axis(name, phase_rad):
            return AxisDisturbance(sinusoids=(SinusoidComponent(50e-6, 0.5, phase_rad),),
                                   noise_rms_rad=0.0 if name in still else 117e-6,
                                   noise_bandwidth_hz=6.0)

        profile = DisturbanceProfile(pitch=axis("pitch", 0.0),
                                     azimuth=axis("azimuth", math.pi / 2))
        n = 10_001
        whole = DisturbanceGenerator(profile, np.random.default_rng(3), n).series(n, -1e-3)
        gen = DisturbanceGenerator(profile, np.random.default_rng(3), n)
        bounds = [0, 1, 8, 4096, n]
        blocks = [gen.series(hi - lo, -1e-3) for lo, hi in zip(bounds, bounds[1:])]
        for k, axis_name in enumerate(("pitch", "azimuth")):
            assert bits(np.concatenate([b[k] for b in blocks])) == bits(whole[k]), axis_name

    def test_deterministic_given_rng(self):
        axis = noise_axis(50e-6, 5.0)
        profile = DisturbanceProfile(pitch=axis, azimuth=axis)
        a = DisturbanceGenerator(profile, np.random.default_rng(1234), 10_000).series(10_000)
        b = DisturbanceGenerator(profile, np.random.default_rng(1234), 10_000).series(10_000)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_sample_count_is_required(self):
        profile = DisturbanceProfile(pitch=noise_axis(50e-6, 5.0), azimuth=STILL)
        with pytest.raises(TypeError):
            DisturbanceGenerator(profile, np.random.default_rng(0))

    def test_calls_continue_the_sinusoids_clock(self):
        # the second call's first sample is sample 4, whatever the caller
        # knows of the first call
        axis = AxisDisturbance(sinusoids=(SinusoidComponent(50e-6, 0.5, 0.0),),
                               noise_rms_rad=0.0, noise_bandwidth_hz=6.0)
        profile = DisturbanceProfile(pitch=axis, azimuth=axis)
        whole = DisturbanceGenerator(profile, np.random.default_rng(0), 10).series(10)
        gen = DisturbanceGenerator(profile, np.random.default_rng(0), 10)
        parts = [gen.series(4), gen.series(6)]
        for k in (0, 1):
            assert bits(np.concatenate([p[k] for p in parts])) == bits(whole[k])

    def test_series_past_n_rejected(self):
        # an 11th sample would draw pitch's noise on into azimuth's
        axis = noise_axis(50e-6, 5.0)
        gen = DisturbanceGenerator(DisturbanceProfile(pitch=axis, azimuth=axis),
                                   np.random.default_rng(0), 10)
        assert len(gen.series(4)[0]) == 4
        assert len(gen.series(6)[0]) == 6
        with pytest.raises(ValueError, match=r"generator's n: 0 samples left"):
            gen.series(1)

    @pytest.mark.parametrize("still_pitch", [False, True], ids=["noisy", "still_pitch"])
    def test_azimuth_noise_follows_both_warmups_and_n_pitch_draws(self, still_pitch):
        # the stream holds pitch's warm-up, azimuth's warm-up, n pitch draws
        # and n azimuth draws; a still pitch makes none of its draws
        profile = DisturbanceProfile(pitch=noise_axis(0.0 if still_pitch else 117e-6, 6.0),
                                     azimuth=noise_axis(40e-6, 17.3))
        n = 20_001
        _, azimuth = DisturbanceGenerator(profile, component_rng(7, "disturbance"),
                                          n).series(n)
        rng = component_rng(7, "disturbance")
        if not still_pitch:
            scipy_warmed_filter(profile.pitch, rng)
        b, a, scale, zi = scipy_warmed_filter(profile.azimuth, rng)
        if not still_pitch:
            rng.standard_normal(n)
        want, _ = signal.lfilter(b, a, scale * rng.standard_normal(n), zi=zi)
        assert bits(azimuth) == bits(want)


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def scipy_impulse_gain(b, a, bandwidth_hz):
    impulse = np.zeros(max(64, int(20.0 * TICK_RATE_HZ / bandwidth_hz)))
    impulse[0] = 1.0
    h = signal.lfilter(b, a, impulse)
    return math.sqrt(float(np.sum(h * h)))


def scipy_warmed_filter(axis, rng):
    """(b, a, scale, state) of an axis's noise filter, warmed up by scipy.signal."""
    b, a = signal.butter(4, axis.noise_bandwidth_hz, fs=TICK_RATE_HZ)
    scale = axis.noise_rms_rad / scipy_impulse_gain(b, a, axis.noise_bandwidth_hz)
    warmup = min(int(6.0 * TICK_RATE_HZ / axis.noise_bandwidth_hz), 60_000)
    _, zi = signal.lfilter(b, a, scale * rng.standard_normal(warmup),
                           zi=signal.lfiltic(b, a, [0.0], [0.0]))
    return b, a, scale, zi


class TestNoiseFilterAgainstScipy:
    """fsosim's Butterworth design and filter carry scipy.signal's bits.

    scipy is the independent oracle here only; the package never imports
    scipy.signal.
    """

    @pytest.mark.parametrize("bandwidth_hz", [0.01, 0.5, 1.0, 6.0, 17.3, 100.0, 449.0, 450.0])
    def test_design(self, bandwidth_hz):
        b, a = dynamics._butterworth_lowpass(bandwidth_hz)
        want_b, want_a = signal.butter(4, bandwidth_hz, fs=TICK_RATE_HZ)
        assert bits(b) == bits(want_b) and bits(a) == bits(want_a)
        # the filter computes x * b[3] and x * b[4] as x * b[1] and x * b[0]
        assert b[3] == b[1] and b[4] == b[0]

    @pytest.mark.parametrize("bandwidth_hz", [0.01, 6.0, 450.0])
    def test_output_and_final_state(self, bandwidth_hz):
        b, a = dynamics._butterworth_lowpass(bandwidth_hz)
        zi = signal.lfiltic(b, a, [0.0], [0.0])
        assert bits(dynamics._ZERO_STATE) == bits(zi)
        x = 1e-4 * np.random.default_rng(7).standard_normal(70_001)
        want, want_state = signal.lfilter(b, a, x, zi=zi)
        y, state = dynamics._lfilter(b, a, x, dynamics._ZERO_STATE)
        assert bits(y) == bits(want) and bits(state) == bits(want_state)
        # the same series over two calls, the state carried between them
        head, mid = dynamics._lfilter(b, a, x[:30_001], dynamics._ZERO_STATE)
        _, want_mid = signal.lfilter(b, a, x[:30_001], zi=zi)
        tail, end = dynamics._lfilter(b, a, x[30_001:], mid)
        assert bits(mid) == bits(want_mid)
        assert bits(np.concatenate([head, tail])) == bits(want) and bits(end) == bits(want_state)

    @pytest.mark.parametrize("bandwidth_hz", [0.01, 6.0, 450.0])
    def test_impulse_gain(self, bandwidth_hz):
        b, a = signal.butter(4, bandwidth_hz, fs=TICK_RATE_HZ)
        assert dynamics._noise_filter(bandwidth_hz)[2] == scipy_impulse_gain(b, a, bandwidth_hz)

    def test_each_bandwidth_has_its_own_cached_filter(self):
        slow, fast = dynamics._noise_filter(6.0), dynamics._noise_filter(17.3)
        assert slow[:2] == dynamics._butterworth_lowpass(6.0)
        assert fast[:2] == dynamics._butterworth_lowpass(17.3)
        assert slow != fast
        assert dynamics._noise_filter(6.0) is slow and dynamics._noise_filter(17.3) is fast

    def test_generator_series_match_scipy_over_two_calls(self):
        profile = DisturbanceProfile(pitch=noise_axis(117e-6, 6.0),
                                     azimuth=noise_axis(40e-6, 17.3))
        n = 70_001
        gen = DisturbanceGenerator(profile, np.random.default_rng(11), n)
        got = [gen.series(25_000), gen.series(n - 25_000)]
        rng = np.random.default_rng(11)
        filters = [scipy_warmed_filter(axis, rng) for axis in (profile.pitch, profile.azimuth)]
        # after the warm-ups: n pitch draws, then n azimuth draws
        white = rng.standard_normal(2 * n)
        for k, (b, a, scale, zi) in enumerate(filters):
            x = scale * white[k * n:(k + 1) * n]
            for (lo, hi), block in zip(((0, 25_000), (25_000, n)), got):
                want, zi = signal.lfilter(b, a, x[lo:hi], zi=zi)
                assert bits(block[k]) == bits(want)
