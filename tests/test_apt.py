import dataclasses
import hashlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fsosim.apt
from fsosim import (
    AptState,
    ScenarioError,
    TrackingSeries,
    component_rng,
    load_scenario,
    resolve_scenario,
    run_apt,
    tracking_stats,
)
from fsosim.apt import RNG_STREAM_LABELS, TICK_RATE_HZ, _axis_rngs, tick_count, tick_window
from fsosim.dynamics import DisturbanceGenerator, lag_alpha
from fsosim.link import _SUM_BLOCK, summarize
from fsosim.scenario import DEFAULTS

from conftest import make_scenario, mutate_json, sinusoid, zero_noise_overrides

# (source, target) pairs the machine may produce, self-loops included
LEGAL_EDGES = frozenset({
    (AptState.STABILIZE, AptState.STABILIZE),
    (AptState.STABILIZE, AptState.ACQUIRE),
    (AptState.ACQUIRE, AptState.ACQUIRE),
    (AptState.ACQUIRE, AptState.COARSE_TRACK),
    (AptState.COARSE_TRACK, AptState.COARSE_TRACK),
    (AptState.COARSE_TRACK, AptState.FINE_TRACK1),
    (AptState.COARSE_TRACK, AptState.REACQUIRE),
    (AptState.FINE_TRACK1, AptState.FINE_TRACK1),
    (AptState.FINE_TRACK1, AptState.FINE_TRACK2),
    (AptState.FINE_TRACK1, AptState.REACQUIRE),
    (AptState.FINE_TRACK2, AptState.FINE_TRACK2),
    (AptState.FINE_TRACK2, AptState.LINKED),
    (AptState.FINE_TRACK2, AptState.REACQUIRE),
    (AptState.LINKED, AptState.LINKED),
    (AptState.LINKED, AptState.REACQUIRE),
    (AptState.REACQUIRE, AptState.ACQUIRE),
})


DT = 1.0 / TICK_RATE_HZ
RESET_STATES = (int(AptState.ACQUIRE), int(AptState.REACQUIRE))
# each mirror loop: its camera, its lock flag and the states that run it
MIRROR_LOOPS = {
    "fsm1": ("cmos1", "lock1", (int(AptState.FINE_TRACK1), int(AptState.FINE_TRACK2),
                                int(AptState.LINKED))),
    "fsm2": ("cmos2", "lock2", (int(AptState.FINE_TRACK2), int(AptState.LINKED))),
}
STAGE_AXES = [(stage, axis) for stage in MIRROR_LOOPS for axis in ("pitch", "azimuth")]


def mirror_run(stage, pitch_urad=200.0, **overrides):
    """2 s from Linked in which only `stage`'s mirror loop moves its mirror.

    Noise-free defaults with a 2 Hz `pitch_urad` (pitch) and a 3 Hz 200 urad
    (azimuth) sinusoid.  With the IMU feedforward off they reach the fine
    cameras almost unreduced, so the mirror sees a residual swinging both
    ways.  The other mirror has no gains and stays at 0, so the run's
    residual `error_*` is the error `stage`'s camera reads one tick later.
    No acquisition bias: started in Linked, the loop holds every lock at the
    default 200 urad swing.  `overrides` are control.<stage>.* and <stage>.*
    keys without the prefix.
    """
    other = "fsm1" if stage == "fsm2" else "fsm2"
    raw = zero_noise_overrides()
    raw.update({
        "apt.acquisition_bias_urad": 0.0,
        f"control.{other}.ki": 0.0,
        "disturbance.pitch.sinusoids": sinusoid(pitch_urad, 2.0),
        "disturbance.azimuth.sinusoids": sinusoid(200.0, 3.0),
    })
    for key, value in overrides.items():
        raw[f"{stage}.{key}" if key == "range_urad" else f"control.{stage}.{key}"] = value
    sc = make_scenario(**raw)
    series = run_apt(sc, 2.0, seed=0, initial_state=AptState.LINKED,
                     enable_feedforward=False)
    assert not getattr(series, f"{other}_pitch_rad").any()
    assert not getattr(series, f"{other}_azimuth_rad").any()
    return sc, series


def replay_mirror(scenario, series, stage, axis):
    """One mirror axis replayed by a scalar PID recurrence.

    Each tick the noise-free camera reads the run's previous residual (the
    run's lock flag gates it; the reading is rounded to the pixel pitch and
    clipped to the FOV), the PID updates when the state runs the loop, and
    the mirror moves through its first-order lag and range clamp.  Returns
    per-tick arrays: deflection, integrator, reading and derivative term.
    """
    cam_name, lock_name, active = MIRROR_LOOPS[stage]
    gains = getattr(scenario, f"gains_{stage}")
    limit = getattr(scenario, stage).range_rad
    alpha = lag_alpha(getattr(scenario, stage).bandwidth_hz, DT)
    cam = getattr(scenario, cam_name)
    half = 0.5 * getattr(cam, f"fov_{axis}_rad")
    pitch = getattr(cam, f"pixel_pitch_{axis}_rad")
    locks = getattr(series, lock_name)
    errors = getattr(series, f"error_{axis}_rad")
    error = 0.0 if series.state[0] == int(AptState.LINKED) else (
        scenario.apt.acquisition_bias_rad / math.sqrt(2.0))
    deflection = integrator = previous = 0.0
    rows = []
    for k in range(len(series)):
        reading = 0.0
        if locks[k]:
            reading = math.floor(abs(error) / pitch + 0.5) * pitch
            reading = min(max(math.copysign(reading, error), -half), half)
        state = int(series.state[k])
        if state in RESET_STATES:
            integrator = 0.0
        if state in active:
            integrator += reading * DT
            if gains.ki > 0.0:
                bound = limit / gains.ki
                if integrator > bound:
                    integrator = bound
                elif integrator < -bound:
                    integrator = -bound
            derivative = gains.kd * (reading - previous) / DT
            command = gains.kp * reading + gains.ki * integrator + derivative
            if gains.ki == 0.0:
                command += deflection
            previous = reading
        else:
            command = derivative = previous = 0.0
        deflection += alpha * (command - deflection)
        deflection = min(max(deflection, -limit), limit)
        rows.append((deflection, integrator, reading, derivative))
        error = float(errors[k])
    return tuple(np.array(column) for column in zip(*rows))


class TestPidStep:
    """The PID update of the 1 kHz loop, read back from `run_apt`.

    Each case runs one gain set on each fine mirror and requires both axes'
    deflection series to equal, bit for bit, the scalar recurrence in
    `replay_mirror`, then checks the property the gains expose.
    """

    @staticmethod
    def replays(**overrides):
        """(scenario, limit, replay arrays) for every mirror axis, checked exact."""
        out = []
        for stage in MIRROR_LOOPS:
            sc, series = mirror_run(stage, **overrides)
            assert (series.state == int(AptState.LINKED)).all()
            for axis in ("pitch", "azimuth"):
                replay = replay_mirror(sc, series, stage, axis)
                assert np.array_equal(getattr(series, f"{stage}_{axis}_rad"), replay[0]), (
                    stage, axis)
                out.append((getattr(sc, f"gains_{stage}"), getattr(sc, stage).range_rad,
                            replay))
        return out

    def test_pure_integral_accumulates(self):
        # a 1000 urad mirror range keeps the integrator inside its bound
        for gains, limit, (_, integrator, reading, _) in self.replays(range_urad=1000.0):
            assert gains.ki > 0.0 and gains.kp == gains.kd == 0.0
            # never clamped: the integrator is the running sum of reading * dt
            assert 0.0 < np.abs(integrator).max() < limit / gains.ki
            assert np.array_equal(integrator, np.cumsum(reading * DT))
            assert (reading > 0.0).any() and (reading < 0.0).any()

    def test_integrator_clamped_to_output_limit(self):
        # a 20 urad mirror cannot null the swing: the integrator winds up to
        # the anti-windup bound, where the integral term commands the range
        for gains, limit, (deflection, integrator, _, _) in self.replays(range_urad=20.0):
            assert integrator.max() == limit / gains.ki
            assert deflection.max() == pytest.approx(limit, rel=1e-9)

    def test_clamp_symmetric(self):
        for gains, limit, (_, integrator, _, _) in self.replays(range_urad=20.0):
            bound = limit / gains.ki
            assert integrator.min() == -bound and integrator.max() == bound

    def test_derivative_term(self):
        for _, _, (deflection, _, reading, derivative) in self.replays(ki=0.0, kd=2e-5):
            # kd * (reading - previous reading) / dt: nonzero where the reading steps
            steps = np.diff(reading, prepend=0.0) != 0.0
            assert steps.any() and (derivative[steps] != 0.0).all()
            assert not derivative[~steps].any()
            assert deflection.any()

    def test_proportional_term(self):
        # ki == 0: there is no anti-windup bound (limit / ki is never formed),
        # and the loop steers relative to the current deflection
        for _, _, (deflection, _, reading, _) in self.replays(ki=0.0, kp=0.5):
            assert (reading > 0.0).any() and (reading < 0.0).any()
            assert deflection.any()

    def test_all_three_terms_with_anti_windup(self):
        # kp, ki and kd all nonzero take the general PID expression; the
        # 20 urad mirror still winds the integrator up to both bounds
        for gains, limit, (_, integrator, reading, derivative) in self.replays(
                kp=0.2, ki=67.0, kd=2e-5, range_urad=20.0):
            assert gains.kp > 0.0 and gains.ki > 0.0 and gains.kd > 0.0
            bound = limit / gains.ki
            assert integrator.min() == -bound and integrator.max() == bound
            steps = np.diff(reading, prepend=0.0) != 0.0
            assert steps.any() and (derivative[steps] != 0.0).all()

    def test_reacquisition_resets_the_integrator(self):
        # a 2 Hz, 1 mrad pitch swing outruns the loops: from Linked the run
        # loses its locks, passes Reacquire and Acquire and locks again, more
        # than once.  The replay zeroes the integrator in every tick of those
        # states; the run zeroes it once, on entry.
        active = {stage: loop[2] for stage, loop in MIRROR_LOOPS.items()}
        for stage in MIRROR_LOOPS:
            sc, series = mirror_run(stage, pitch_urad=1000.0)
            state = series.state
            lost = np.flatnonzero(state == int(AptState.REACQUIRE))
            assert len(lost) >= 2
            assert (state[lost + 1] == int(AptState.ACQUIRE)).all()
            assert np.isin(state[lost[0] + 2:lost[1]], active[stage]).any()
            for axis in ("pitch", "azimuth"):
                deflection, integrator, _, _ = replay_mirror(sc, series, stage, axis)
                assert np.array_equal(getattr(series, f"{stage}_{axis}_rad"), deflection), (
                    stage, axis)
                assert (integrator[lost - 1] != 0.0).all()
                assert not integrator[np.isin(state, RESET_STATES)].any()


class TestComponentRng:
    def test_streams_are_reproducible(self):
        a = component_rng(42, "cmos0").standard_normal(8)
        b = component_rng(42, "cmos0").standard_normal(8)
        assert np.array_equal(a, b)

    def test_streams_are_distinct(self):
        draws = {
            name: component_rng(42, name).standard_normal(4).tobytes()
            for name in RNG_STREAM_LABELS
        }
        assert len(set(draws.values())) == len(RNG_STREAM_LABELS)

    def test_unknown_component_rejected(self):
        with pytest.raises(KeyError):
            component_rng(42, "lidar")

    @pytest.mark.parametrize("component", ["cmos0", "cmos1", "cmos2", "imu"])
    def test_axis_streams_are_n_pitch_then_n_azimuth_draws(self, component):
        # n spans more than one block of the draws the azimuth copy skips
        n = 20_001
        stream = component_rng(42, component).standard_normal(2 * n + 3)
        pitch, azimuth = _axis_rngs(42, component, n)
        # azimuth first: its copy must not move pitch's generator
        assert azimuth.standard_normal(n + 3).tobytes() == stream[n:].tobytes()
        assert pitch.standard_normal(n).tobytes() == stream[:n].tobytes()


NOT_FINE = (AptState.STABILIZE, AptState.ACQUIRE, AptState.COARSE_TRACK,
            AptState.REACQUIRE)
COARSE_ONLY = {"enable_fine1": False, "enable_fine2": False}
# runs whose series must not depend on the input block: (scenario
# overrides, run_apt keyword arguments)
BLOCK_CASES = {
    "coarse": ({}, COARSE_ONLY),
    "fine1": ({}, {"enable_fine1": True, "enable_fine2": False}),
    "full": ({}, {"enable_fine1": True, "enable_fine2": True}),
    # a still pitch draws no noise, so azimuth draws from where pitch's would
    "still_pitch": ({"disturbance.pitch.noise_rms_urad": 0.0}, {}),
    "no_imu_noise": ({"imu.rate_noise_urad_s": 0.0}, {}),
    # Stabilize, the one state that reads the measured IMU rate, ends at tick
    # 2152 at this threshold (seed 7): its dwell count resets on the rate of
    # ticks in every block
    "long_stabilize": ({"apt.stabilize_rate_threshold_urad_s": 600.0}, {}),
}
FINE_STATES = (int(AptState.FINE_TRACK1), int(AptState.FINE_TRACK2), int(AptState.LINKED))


def camera_reading(error, noise, pixel, half):
    """One axis of a camera's measured reading: error + noise rounded to the
    pixel pitch (halves away from zero) and clipped to the half-FOV."""
    x = error + noise
    reading = math.floor(abs(x) / pixel + 0.5) * pixel
    reading = reading if x >= 0.0 else -reading
    return min(max(reading, -half), half)


def replay_states(scenario, series, initial_state=AptState.STABILIZE,
                  enable_fine1=None, enable_fine2=None, fine_after_s=0.0):
    """The run's state series replayed from its recorded locks and readings.

    Applies the transition rules of the `apt` module docstring tick by tick
    to the run's lock flags, to its coarse and fine cameras' measured
    readings, and to the gimbal's rate over the previous tick against the
    measured IMU rate.  The readings are formed again from the run's
    recorded angles and from the camera, IMU and disturbance streams drawn
    again from its seed.  Takes `run_apt`'s keyword arguments.
    """
    n = len(series)
    p = scenario.apt
    fine1 = p.fine1_enabled if enable_fine1 is None else enable_fine1
    fine2 = p.fine2_enabled if enable_fine2 is None else enable_fine2
    bias = p.acquisition_bias_rad / math.sqrt(2.0)
    start = 0.0 if initial_state == AptState.LINKED else bias
    base = DisturbanceGenerator(scenario.disturbance, component_rng(series.seed, "disturbance"),
                                n + 1).series(n + 1, -DT)
    imu_rng = component_rng(series.seed, "imu")
    imu = [np.diff(b) / DT + scenario.imu.rate_noise_rad_s * imu_rng.standard_normal(n)
           for b in base]
    gimbal = (series.gimbal_pitch_rad, series.gimbal_azimuth_rad)
    residual = (series.error_pitch_rad, series.error_azimuth_rad)

    def readings(cam_name, locks, errors):
        """Per-axis readings of the errors the camera sees (the previous
        tick's); 0 in the ticks without the camera's lock."""
        cam = getattr(scenario, cam_name)
        rng = component_rng(series.seed, cam_name)
        noises = [cam.centroid_noise_rad * rng.standard_normal(n) for _ in range(2)]
        out = []
        for axis, error, noise in zip(("pitch", "azimuth"), errors, noises):
            seen = np.r_[start, error[:-1]]
            pixel = getattr(cam, f"pixel_pitch_{axis}_rad")
            half = 0.5 * getattr(cam, f"fov_{axis}_rad")
            out.append([camera_reading(e, w, pixel, half) if lock else 0.0
                        for e, w, lock in zip(seen, noise, locks)])
        return out

    coarse = readings("cmos0", series.lock0,
                      [(b[1:] + bias) - g for b, g in zip(base, gimbal)])
    fine = readings("cmos2", series.lock2, residual)
    rates = []
    for g in gimbal:
        previous = np.r_[0.0, g[:-1]]
        rates.append((previous - np.r_[0.0, previous[:-1]]) / DT)

    # fine_after_s holds both fine stages back until the first tick at or after it
    state = initial_state
    stabilized = lost = dwell = 0
    out = []
    for k in range(n):
        held = k / TICK_RATE_HZ < fine_after_s
        lock0, lock1, lock2 = series.lock0[k], series.lock1[k], series.lock2[k]
        if state == AptState.STABILIZE:
            steady = all(abs(rates[a][k] - imu[a][k]) < p.stabilize_rate_threshold_rad_s
                         for a in (0, 1))
            stabilized = stabilized + 1 if steady else 0
            if stabilized >= p.stabilize_dwell_s * TICK_RATE_HZ:
                state = AptState.ACQUIRE
        elif state == AptState.ACQUIRE:
            if lock0:
                state = AptState.COARSE_TRACK
                lost = 0
        elif state == AptState.REACQUIRE:
            state = AptState.ACQUIRE
        else:
            needed = {AptState.COARSE_TRACK: lock0, AptState.FINE_TRACK1: lock0 and lock1}
            lost = 0 if needed.get(state, lock0 and lock1 and lock2) else lost + 1
            if lost >= p.lock_loss_frames:
                state = AptState.REACQUIRE
                lost = dwell = 0
            elif state == AptState.COARSE_TRACK:
                radial = math.hypot(coarse[0][k], coarse[1][k])
                if fine1 and not held and lock1 and radial < p.fine_capture_threshold_rad:
                    state = AptState.FINE_TRACK1
            elif state == AptState.FINE_TRACK1:
                if fine2 and not held and lock2:
                    state = AptState.FINE_TRACK2
            elif state == AptState.FINE_TRACK2:
                if lock2 and math.hypot(fine[0][k], fine[1][k]) < p.link_threshold_rad:
                    dwell += 1
                    if dwell >= p.link_dwell_s * TICK_RATE_HZ:
                        state = AptState.LINKED
                else:
                    dwell = 0
        out.append(int(state))
    return np.array(out, dtype=np.int8)


def run_and_replay(scenario, duration_s, seed, **kwargs):
    """(series, replayed states) of one run_apt call."""
    series = run_apt(scenario, duration_s, seed, **kwargs)
    return series, replay_states(scenario, series, **kwargs)


def replay_locks(scenario, series, initial_state=AptState.STABILIZE):
    """The run's three lock flags replayed from its recorded angles.

    Each camera gates the error it sees one tick late: e0 = (base + bias) -
    gimbal for the coarse camera, e1 = e0 - FSM1 for the mid one and the
    recorded residual for the fine one, from the acquisition bias (0 from
    Linked) before the first tick.  It has lock when the coarse radial error
    is inside its beacon's half-cone and both axes of its error are inside
    its half-FOVs.  The base motion is drawn again from the run's seed.
    """
    n = len(series)
    bias = scenario.apt.acquisition_bias_rad / math.sqrt(2.0)
    start = 0.0 if initial_state == AptState.LINKED else bias
    base = DisturbanceGenerator(scenario.disturbance, component_rng(series.seed, "disturbance"),
                                n + 1).series(n + 1, -DT)
    e0 = [(b[1:] + bias) - g
          for b, g in zip(base, (series.gimbal_pitch_rad, series.gimbal_azimuth_rad))]
    e1 = [e - f for e, f in zip(e0, (series.fsm1_pitch_rad, series.fsm1_azimuth_rad))]
    e2 = [series.error_pitch_rad, series.error_azimuth_rad]
    seen = [[np.r_[start, e[:-1]] for e in errors] for errors in (e0, e1, e2)]
    radial = np.array([math.hypot(p, a) for p, a in zip(*seen[0])])
    locks = []
    for stage in range(3):
        cam = getattr(scenario, f"cmos{stage}")
        cone = 0.5 * getattr(scenario, f"beacon_bl{stage}").divergence_full_angle_rad
        lock = radial <= cone
        for axis, error in zip(("pitch", "azimuth"), seen[stage]):
            half = 0.5 * getattr(cam, f"fov_{axis}_rad")
            lock &= (-half <= error) & (error <= half)
        locks.append(lock)
    return locks


def assert_locks_equal_replay(scenario, series, initial_state=AptState.STABILIZE):
    for stage, lock in enumerate(replay_locks(scenario, series, initial_state)):
        assert np.array_equal(getattr(series, f"lock{stage}"), lock), f"lock{stage}"


def lock_changes(series):
    """How many ticks after the first have lock flags that are not the previous tick's."""
    flags = np.stack([series.lock0, series.lock1, series.lock2])
    return int((flags[:, 1:] != flags[:, :-1]).any(axis=0).sum())


def lossy_swing_scenario():
    """An 8 Hz, 20 mrad pitch swing that outruns the gimbal's slew limit, so
    the spot leaves the bl0 cone and comes back: locks come and go.  (It also
    keeps the gimbal from ever stabilizing.)"""
    return make_scenario(**{"cmos0.centroid_noise_urad": 300.0,
                            "disturbance.pitch.sinusoids": sinusoid(20_000.0, 8.0),
                            "apt.lock_loss_frames": 5})


def edges(series, initial_state=AptState.STABILIZE):
    """The run's (source, target) state pairs, the initial state included."""
    states = [AptState(initial_state)] + [AptState(s) for s in series.state]
    return set(zip(states, states[1:]))


def lossy_scenario():
    """Noise-free defaults whose 1 mrad bl0 half-cone excludes the 2 mrad
    acquisition bias: no camera ever locks."""
    return make_scenario(**zero_noise_overrides(), **{"beacons.bl0.divergence_mrad": 2.0})


def still_scenario(**overrides):
    """Noise-free, unbiased defaults whose gimbal and mirrors never move.

    Without integral gains each loop steers relative to its actuator's
    position, so the IMU feedforward does not act either: the errors are the
    base motion (`overrides` may add sinusoids) and each camera reads their
    noise-free quantized value.
    """
    raw = zero_noise_overrides()
    raw.update({"apt.acquisition_bias_urad": 0.0})
    for loop in ("coarse", "fsm1", "fsm2"):
        raw.update({f"control.{loop}.kp": 0.0, f"control.{loop}.ki": 0.0,
                    f"control.{loop}.kd": 0.0})
    raw.update(overrides)
    return make_scenario(**raw)


def threshold_equal_to(radial):
    """A value in urad that a scenario resolves to exactly `radial` rad."""
    value = radial / 1e-6
    for _ in range(8):
        if value * 1e-6 == radial:
            return value
        value = math.nextafter(value, math.inf if value * 1e-6 < radial else -math.inf)
    raise AssertionError(f"no urad value resolves to {radial!r}")


def runs(flags):
    """Lengths of the runs of True in a boolean series."""
    out, length = [], 0
    for flag in flags:
        if flag:
            length += 1
        elif length:
            out.append(length)
            length = 0
    return out + [length] if length else out


class TestStateMachine:
    """The transition rules, read back from `run_apt`'s state series."""

    @given(seed=st.integers(0, 2**64 - 1), initial=st.sampled_from(list(AptState)),
           frames=st.integers(1, 60), noise=st.floats(0.0, 3000.0),
           stages=st.sampled_from([(False, False), (True, False), (True, True)]))
    @settings(max_examples=60, deadline=None)
    def test_only_legal_edges(self, seed, initial, frames, noise, stages):
        # coarse-camera noise up to 3 mrad, and base noise five times that,
        # shake the spot out of the fine cameras' 1 mrad fields: locks come and go
        sc = make_scenario(**{"apt.lock_loss_frames": frames,
                              "cmos0.centroid_noise_urad": noise,
                              "disturbance.pitch.noise_rms_urad": 5.0 * noise})
        series = run_apt(sc, 0.6, seed, initial_state=initial,
                         enable_fine1=stages[0], enable_fine2=stages[1])
        assert edges(series, initial) <= LEGAL_EDGES

    @given(seed=st.integers(0, 2**64 - 1), initial=st.sampled_from(NOT_FINE),
           bias=st.floats(0.0, 19_000.0), fine_after=st.sampled_from([0.0, 0.5, 5.0]))
    @settings(max_examples=60, deadline=None)
    def test_fine_states_unreachable_when_disabled(self, seed, initial, bias, fine_after):
        # the default run captures and links within a second with the stages on
        sc = make_scenario(**zero_noise_overrides(), **{"apt.acquisition_bias_urad": bias})
        for kwargs in ({"enable_fine1": False, "enable_fine2": False},
                       {"enable_fine1": True, "enable_fine2": False}):
            series = run_apt(sc, 1.2, seed, initial_state=initial, fine_after_s=fine_after,
                             **kwargs)
            unreachable = FINE_STATES[kwargs["enable_fine1"]:]
            assert not np.isin(series.state, unreachable).any()
        sc = make_scenario(**zero_noise_overrides(), **{
            "apt.acquisition_bias_urad": bias,
            "apt.fine1_enabled": False, "apt.fine2_enabled": False})
        series = run_apt(sc, 1.2, seed, initial_state=initial, fine_after_s=fine_after)
        assert not np.isin(series.state, FINE_STATES).any()

    def test_lock_loss_debounce_is_exact(self):
        sc = lossy_scenario()
        frames = sc.apt.lock_loss_frames
        series = run_apt(sc, 0.2, seed=0,
                         initial_state=AptState.COARSE_TRACK, **COARSE_ONLY)
        assert not series.lock0.any()
        assert (series.state[:frames - 1] == int(AptState.COARSE_TRACK)).all()
        assert series.state[frames - 1] == int(AptState.REACQUIRE)
        assert (series.state[frames:] == int(AptState.ACQUIRE)).all()

    def test_debounce_counter_resets_on_lock(self):
        # a 10 Hz, 3.3 mrad pitch swing leaves the 1 mrad bl0 half-cone for
        # about 40 of every 50 ticks: many losses, none of them lock_loss_frames long
        swing = {"beacons.bl0.divergence_mrad": 2.0,
                 "disturbance.pitch.sinusoids": sinusoid(3300.0, 10.0)}
        sc = still_scenario(**swing)
        series = run_apt(sc, 1.0, seed=0, initial_state=AptState.COARSE_TRACK, **COARSE_ONLY)
        gaps = runs(~series.lock0)
        assert len(gaps) >= 10 and max(gaps) < sc.apt.lock_loss_frames
        assert (series.state == int(AptState.COARSE_TRACK)).all()
        # the same swing with a debounce as long as the first gap
        short = still_scenario(**swing, **{"apt.lock_loss_frames": gaps[0]})
        series = run_apt(short, 1.0, seed=0, initial_state=AptState.COARSE_TRACK,
                         **COARSE_ONLY)
        first_loss = int(np.argmin(series.lock0))
        assert (series.state[:first_loss + gaps[0] - 1] == int(AptState.COARSE_TRACK)).all()
        assert series.state[first_loss + gaps[0] - 1] == int(AptState.REACQUIRE)

    def test_linked_requires_dwell(self):
        sc = still_scenario()
        need = int(sc.apt.link_dwell_s * TICK_RATE_HZ)
        series = run_apt(sc, 1.0, seed=0, initial_state=AptState.FINE_TRACK2)
        assert series.lock2.all() and not series.error_pitch_rad.any()
        assert (series.state[:need - 1] == int(AptState.FINE_TRACK2)).all()
        assert (series.state[need - 1:] == int(AptState.LINKED)).all()

    def test_dwell_resets_when_threshold_exceeded(self):
        # a 1 Hz, 60 urad pitch swing: the fine reading stays below the 50 urad
        # link threshold for the first ~155 ticks, then for ~310 ticks at a
        # time, so a 0.5 s dwell never completes and a 0.25 s one completes
        # only in the second stretch, its count reset after the first
        for dwell_s in (0.5, 0.25):
            sc = still_scenario(**{"apt.link_dwell_s": dwell_s,
                                   "disturbance.pitch.sinusoids": sinusoid(60.0, 1.0)})
            series = run_apt(sc, 3.0, seed=0, initial_state=AptState.FINE_TRACK2)
            assert series.lock0.all() and series.lock1.all() and series.lock2.all()
            cam = sc.cmos2
            seen = np.r_[0.0, series.error_pitch_rad[:-1]]
            below = np.array([abs(camera_reading(e, 0.0, cam.pixel_pitch_pitch_rad,
                                                 0.5 * cam.fov_pitch_rad))
                              < sc.apt.link_threshold_rad for e in seen])
            need = int(dwell_s * TICK_RATE_HZ)
            stretches = runs(below)
            assert len(stretches) >= 4 and below.sum() >= 2 * need
            linked = series.state == int(AptState.LINKED)
            if dwell_s == 0.5:
                assert max(stretches) < need and not linked.any()
            else:
                assert stretches[0] < need < stretches[1]
                # the first tick that ends `need` consecutive ticks below the threshold
                window = np.convolve(below, np.ones(need, dtype=int), "valid")
                first = int(np.argmax(window == need)) + need - 1
                assert not linked[:first].any() and linked[first:].all()

    def test_stabilize_dwell(self, zero_noise_scenario):
        need = int(zero_noise_scenario.apt.stabilize_dwell_s * TICK_RATE_HZ)
        series = run_apt(zero_noise_scenario, 0.2, seed=0)
        assert (series.state[:need - 1] == int(AptState.STABILIZE)).all()
        assert series.state[need - 1] == int(AptState.ACQUIRE)
        assert (series.state[need:] != int(AptState.STABILIZE)).all()

    def test_coarse_capture_needs_threshold_and_mid_lock(self):
        # a still run from CoarseTrack reads its bias on every tick
        def capture(threshold_urad, bl1_mrad):
            sc = still_scenario(**{"apt.acquisition_bias_urad": 400.0,
                                   "apt.fine_capture_threshold_urad": threshold_urad,
                                   "beacons.bl1.divergence_mrad": bl1_mrad})
            series = run_apt(sc, 0.1, seed=0, initial_state=AptState.COARSE_TRACK)
            assert series.lock0.all()
            return sc, series

        sc, series = capture(5000.0, 6.0)
        cam = sc.cmos0
        radial = math.hypot(*(camera_reading(400e-6 / math.sqrt(2.0), 0.0,
                                             getattr(cam, f"pixel_pitch_{axis}_rad"),
                                             0.5 * getattr(cam, f"fov_{axis}_rad"))
                              for axis in ("pitch", "azimuth")))
        assert series.lock1.all() and series.state[0] == int(AptState.FINE_TRACK1)
        # a threshold equal to the measured radial does not capture
        at = threshold_equal_to(radial)
        sc, series = capture(at, 6.0)
        assert sc.apt.fine_capture_threshold_rad == radial
        assert (series.state == int(AptState.COARSE_TRACK)).all()
        # below the threshold, but the bl1 cone hides the mid camera's beacon
        sc, series = capture(5000.0, 0.2)
        assert not series.lock1.any()
        assert (series.state == int(AptState.COARSE_TRACK)).all()


class TestRunApt:
    def test_zero_noise_run_reaches_linked(self, zero_noise_scenario):
        series = run_apt(zero_noise_scenario, 6.0, seed=0)
        assert AptState(series.state[-1]) == AptState.LINKED
        tail = series.window(5.0, 6.0)
        radial = np.hypot(tail.error_pitch_rad, tail.error_azimuth_rad)
        assert radial.max() < zero_noise_scenario.apt.link_threshold_rad

    def test_zero_bias_start_linked_holds_zero_residual(self):
        sc = make_scenario(**zero_noise_overrides(),
                           **{"apt.acquisition_bias_urad": 0.0})
        series = run_apt(sc, 1.0, seed=0, initial_state=AptState.LINKED)
        assert np.all(series.error_pitch_rad == 0.0)
        assert np.all(series.error_azimuth_rad == 0.0)
        assert np.all(series.state == int(AptState.LINKED))

    def test_bit_identical_determinism(self, scenario):
        a = run_apt(scenario, 3.0, seed=123)
        b = run_apt(scenario, 3.0, seed=123)
        for field in ("t_s", "state", "error_pitch_rad", "error_azimuth_rad",
                      "gimbal_azimuth_rad", "gimbal_pitch_rad",
                      "fsm1_pitch_rad", "fsm1_azimuth_rad",
                      "fsm2_pitch_rad", "fsm2_azimuth_rad",
                      "lock0", "lock1", "lock2"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field

    def test_different_seeds_differ(self, scenario):
        a = run_apt(scenario, 2.0, seed=1)
        b = run_apt(scenario, 2.0, seed=2)
        assert not np.array_equal(a.error_pitch_rad, b.error_pitch_rad)

    def test_fsm_deflections_stay_in_range(self, scenario):
        series = run_apt(scenario, 5.0, seed=4)
        r1 = scenario.fsm1.range_rad
        r2 = scenario.fsm2.range_rad
        assert np.abs(series.fsm1_pitch_rad).max() <= r1
        assert np.abs(series.fsm1_azimuth_rad).max() <= r1
        assert np.abs(series.fsm2_pitch_rad).max() <= r2
        assert np.abs(series.fsm2_azimuth_rad).max() <= r2

    def test_fine_after_keeps_stages_off_then_engages(self, scenario):
        series = run_apt(scenario, 12.0, seed=1, fine_after_s=6.0)
        early = series.window(0.0, 6.0)
        fine_states = (int(AptState.FINE_TRACK1), int(AptState.FINE_TRACK2),
                       int(AptState.LINKED))
        assert not np.isin(early.state, fine_states).any()
        late = series.window(8.0, 12.0)
        assert np.isin(late.state, fine_states).all()

    @pytest.mark.parametrize("fine_after", [1.001, 1.003, 7.0])
    def test_fine_after_hands_over_at_the_first_tick_at_or_after_it(self, fine_after):
        # 1.001 * 1000 is 1000.9999999999999: the handover is tick 1001, the
        # first at or after 1.001 s, as in a statistics window from then on.
        # This run captures as soon as it may, so the handover tick is its
        # first fine tick.
        sc = load_scenario(Path(__file__).resolve().parents[1] / "scenarios" / "1km_default.json")
        series, replay = run_and_replay(sc, 8.0, 1, fine_after_s=fine_after)
        handover = next(k for k in range(len(series)) if k / TICK_RATE_HZ >= fine_after)
        assert handover == tick_window(fine_after, math.inf, len(series)).start
        assert not np.isin(series.state[:handover], FINE_STATES).any()
        assert series.state[handover] == int(AptState.FINE_TRACK1)
        assert np.array_equal(series.state, replay)

    @pytest.mark.parametrize("fine_after", [math.nan, math.inf, -math.inf, -1.0, -1e-9])
    def test_fine_after_must_be_nonnegative_and_finite(self, scenario, fine_after):
        # NaN would hold both fine stages off for the whole run, a negative
        # value would act as 0 and inf would overflow the handover tick
        with pytest.raises(ValueError, match="fine_after_s"):
            run_apt(scenario, 0.01, seed=1, fine_after_s=fine_after)

    def test_feedforward_rejects_slow_base_rotation(self):
        # base rate large enough that the vision-loop lag error dominates
        # the coarse camera's pixel floor
        overrides = zero_noise_overrides()
        overrides["disturbance.pitch.sinusoids"] = [
            {"amplitude_urad": 15000.0, "frequency_hz": 0.05, "phase_deg": 0.0}
        ]
        overrides["apt.fine1_enabled"] = False
        overrides["apt.fine2_enabled"] = False
        sc = make_scenario(**overrides)
        on = run_apt(sc, 8.0, seed=0)
        off = run_apt(sc, 8.0, seed=0, enable_feedforward=False)
        mean_on = tracking_stats(on.window(3.0, 8.0)).radial_mean_rad
        mean_off = tracking_stats(off.window(3.0, 8.0)).radial_mean_rad
        assert mean_off > 2.0 * mean_on

    def test_enable_fine2_requires_fine1(self, scenario):
        with pytest.raises(ValueError):
            run_apt(scenario, 1.0, seed=0, enable_fine1=False, enable_fine2=True)

    def test_nonpositive_duration_rejected(self, scenario):
        with pytest.raises(ValueError):
            run_apt(scenario, 0.0, seed=0)

    @pytest.mark.parametrize("duration", [0.0004, 0.0005, math.inf, math.nan])
    def test_duration_without_a_tick_rejected(self, scenario, duration):
        # 0.5 ms rounds half to even, to zero ticks
        with pytest.raises(ValueError):
            run_apt(scenario, duration, seed=0)

    @pytest.mark.parametrize("duration", [1e306, math.inf])
    def test_tick_count_must_be_finite(self, scenario, duration):
        # 1e306 s is finite, but 1e306 * 1000 ticks overflows to inf
        with pytest.raises(ValueError, match="finite tick count"):
            tick_count(duration)
        with pytest.raises(ValueError):
            run_apt(scenario, duration, seed=0)

    def test_duration_beyond_memory_refused_before_any_allocation(self, scenario,
                                                                  monkeypatch):
        # 1e15 ticks would need some 76 PB: refused by name before the
        # disturbance generator is built, not in a numpy MemoryError
        def no_generator(*args, **kwargs):
            raise AssertionError("DisturbanceGenerator constructed")

        monkeypatch.setattr(fsosim.apt, "DisturbanceGenerator", no_generator)
        with pytest.raises(ValueError, match=r"^duration_s: .*bytes of memory"):
            run_apt(scenario, 1e12, 1)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
    def test_seed_outside_64_bits_refused_before_any_allocation(self, scenario, seed,
                                                               monkeypatch):
        # refused by name: numpy would answer -1 with an unnamed "expected
        # non-negative integer" and run 2**64
        def no_generator(*args, **kwargs):
            raise AssertionError("DisturbanceGenerator constructed")

        monkeypatch.setattr(fsosim.apt, "DisturbanceGenerator", no_generator)
        with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 2\*\*64\)"):
            run_apt(scenario, 1.0, seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**64 - 1)])
    def test_seed_range_ends_are_accepted(self, scenario, seed):
        assert run_apt(scenario, 0.002, seed).seed == seed

    def test_shortest_run_is_one_tick(self, scenario):
        series = run_apt(scenario, 0.0006, seed=0)
        assert series.t_s.tolist() == [0.0]

    def test_scenario_stage_flags_are_defaults(self):
        sc = make_scenario(**{"apt.fine1_enabled": False, "apt.fine2_enabled": False})
        series = run_apt(sc, 4.0, seed=1)
        fine_states = (int(AptState.FINE_TRACK1), int(AptState.FINE_TRACK2),
                       int(AptState.LINKED))
        assert not np.isin(series.state, fine_states).any()
        forced = run_apt(sc, 4.0, seed=1, enable_fine1=True, enable_fine2=True)
        assert np.isin(forced.state, fine_states).any()

    @pytest.mark.parametrize("block", [1, 7, 1000, 10**6])
    @pytest.mark.parametrize("case", BLOCK_CASES.values(), ids=BLOCK_CASES.keys())
    @pytest.mark.parametrize("feedforward", [True, False], ids=["ff", "no_ff"])
    def test_series_do_not_depend_on_the_input_block(self, block, case, feedforward,
                                                     monkeypatch):
        # 3001 ticks, one block at the default size: blocks of one tick, of 7
        # and of 1000 (each with a short last block) and one block longer
        # than the run give the same bits.  3 s reach each stage set's
        # deepest state, so every camera's noise and the feedforward are read.
        overrides, stages = case
        sc = make_scenario(**overrides)
        kwargs = dict(stages, enable_feedforward=feedforward)
        default = run_apt(sc, 3.001, 7, **kwargs)
        monkeypatch.setattr(fsosim.apt, "_INPUT_BLOCK", block)
        blocked = run_apt(sc, 3.001, 7, **kwargs)
        arrays = [field.name for field in dataclasses.fields(default)
                  if isinstance(getattr(default, field.name), np.ndarray)]
        assert len(arrays) == 13
        for name in arrays:
            assert getattr(blocked, name).tobytes() == getattr(default, name).tobytes(), name

    def test_peak_is_the_series_and_a_few_blocks(self, scenario, monkeypatch):
        # The run holds whole only what it returns; it makes the base angles,
        # the measured IMU rate, the camera noise and the feedforward (twelve
        # float64 arrays) a block of ticks at a time, and about two blocks
        # are alive while the next is made.  Two blocks of slack are 10
        # bytes a tick here; the base angles and the IMU rate held whole
        # would add 32.
        block = 1024
        monkeypatch.setattr(fsosim.apt, "_INPUT_BLOCK", block)
        run_apt(scenario, 0.01, 1)  # the disturbance filter's design, cached per process
        n = tick_count(20.0)
        tracemalloc.start()
        try:
            series = run_apt(scenario, 20.0, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(a.nbytes for a in vars(series).values() if isinstance(a, np.ndarray))
        assert returned == 76 * n
        assert peak < returned + 2 * 12 * 8 * block


def first_reading_run(edge, axis, sign, overrides):
    """A still run whose error at t = 0, which tick 1's cameras read, is
    sign * edge on `axis` alone: a +-90 deg sinusoid starts at exactly
    +-its amplitude, as sin(+-pi / 2) is exactly +-1.0."""
    amplitude = threshold_equal_to(edge)
    series = run_apt(still_scenario(**overrides, **{
        f"disturbance.{axis}.sinusoids": sinusoid(amplitude, 1.0, sign * 90.0)}), 0.002, seed=1)
    assert getattr(series, f"error_{axis}_rad")[0] == sign * edge
    return series


# each camera's lock flag and the beacon whose cone gates it
CAMERA_GATES = {"cmos0": ("lock0", "bl0"), "cmos1": ("lock1", "bl1"), "cmos2": ("lock2", "bl2")}


class TestLockGates:
    """A camera's gates are closed: it locks on a spot exactly on its half-FOV
    or its beacon cone's edge, and not one ulp beyond."""

    def assert_gate_edge(self, cam, edge, axis, sign, overrides):
        lock = CAMERA_GATES[cam][0]
        beyond = math.nextafter(edge, math.inf)
        assert getattr(first_reading_run(edge, axis, sign, overrides), lock)[1]
        assert not getattr(first_reading_run(beyond, axis, sign, overrides), lock)[1]

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("axis", ["pitch", "azimuth"])
    @pytest.mark.parametrize("cam", sorted(CAMERA_GATES))
    def test_half_fov_edge(self, cam, axis, sign):
        # bl0 widened: its 17.5 mrad half-cone lies inside cmos0's 20 mrad half-FOV
        overrides = {"beacons.bl0.divergence_mrad": 100.0}
        sc = still_scenario(**overrides)
        half = 0.5 * getattr(getattr(sc, cam), f"fov_{axis}_rad")
        assert half < 0.5 * getattr(sc, f"beacon_{CAMERA_GATES[cam][1]}").divergence_full_angle_rad
        self.assert_gate_edge(cam, half, axis, sign, overrides)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("cam", sorted(CAMERA_GATES))
    def test_beacon_cone_edge(self, cam, sign):
        # bl1's and bl2's 3 mrad half-cones are wider than cmos1's and
        # cmos2's half-FOVs: narrowed to 0.4 mrad, inside them
        beacon = CAMERA_GATES[cam][1]
        overrides = {f"beacons.{beacon}.divergence_mrad": 0.8} if cam != "cmos0" else {}
        sc = still_scenario(**overrides)
        half = 0.5 * getattr(sc, f"beacon_{beacon}").divergence_full_angle_rad
        assert half < 0.5 * getattr(sc, cam).fov_pitch_rad
        self.assert_gate_edge(cam, half, "pitch", sign, overrides)


SHIPPED = sorted(p.stem for p in Path(__file__).resolve().parents[1].glob("scenarios/*.json"))


class TestStateReplay:
    """`series.state` equals the replay of the transition rules on the run's
    recorded locks and measured readings, bit for bit."""

    @pytest.mark.parametrize("name", SHIPPED)
    def test_shipped_scenario_state_equals_replay(self, name):
        sc = load_scenario(Path(__file__).resolve().parents[1] / "scenarios" / f"{name}.json")
        series, replay = run_and_replay(sc, 12.0, 1)
        assert np.array_equal(series.state, replay)
        assert edges(series) <= LEGAL_EDGES
        assert_locks_equal_replay(sc, series)

    def test_handover_state_equals_replay(self, scenario):
        series, replay = run_and_replay(scenario, 8.0, 2, fine_after_s=3.0)
        assert np.array_equal(series.state, replay)
        assert not np.isin(series.state[:3000], FINE_STATES).any()
        assert series.state[-1] == int(AptState.LINKED)

    def test_interrupted_stabilize_equals_replay(self):
        # IMU noise of 2 mrad/s against the 5 mrad/s threshold breaks about
        # one stabilized tick in 40, so the dwell restarts many times
        sc = make_scenario(**{"imu.rate_noise_urad_s": 2000.0})
        series, replay = run_and_replay(sc, 3.0, 3)
        assert np.array_equal(series.state, replay)
        stabilizing = runs(series.state == int(AptState.STABILIZE))
        assert stabilizing[0] > 3 * sc.apt.stabilize_dwell_s * TICK_RATE_HZ
        assert series.state[-1] == int(AptState.LINKED)

    def test_fine_lock_gaps_equal_replay(self):
        # a 10 Hz, 150 urad swing leaves a 0.2 mrad fine camera field for 27
        # of every 50 ticks while the other cameras keep their locks: the
        # tick without a fine lock has a zero fine reading
        sc = still_scenario(**{"cmos2.fov_pitch_mrad": 0.2, "apt.link_dwell_s": 0.02,
                               "disturbance.pitch.sinusoids": sinusoid(150.0, 10.0)})
        series, replay = run_and_replay(sc, 1.0, 0, initial_state=AptState.FINE_TRACK2)
        assert np.array_equal(series.state, replay)
        assert series.lock1.all() and len(runs(~series.lock2)) >= 10
        assert_locks_equal_replay(sc, series, AptState.FINE_TRACK2)
        # the link dwell counts fine-locked ticks only: every tick of the
        # dwell that ends in Linked holds the fine lock
        dwell = math.ceil(sc.apt.link_dwell_s * TICK_RATE_HZ)
        states = np.r_[int(AptState.FINE_TRACK2), series.state]
        for k in np.flatnonzero((states[:-1] == int(AptState.FINE_TRACK2))
                                & (states[1:] == int(AptState.LINKED))):
            assert k + 1 >= dwell and series.lock2[k + 1 - dwell:k + 1].all(), k

    @pytest.mark.parametrize("initial", list(AptState)[1:])
    def test_lossy_runs_equal_replay(self, initial):
        # locks come and go, and no run starts in Stabilize, which the
        # swinging gimbal never leaves
        sc = lossy_swing_scenario()
        series, replay = run_and_replay(sc, 3.0, 5, initial_state=initial)
        assert np.array_equal(series.state, replay)
        assert int(AptState.REACQUIRE) in series.state
        assert lock_changes(series) >= 30
        assert_locks_equal_replay(sc, series, initial)


# SHA-256 over the bytes of all 13 arrays of a run_apt series, in field
# order, for the lossy swing scenario (seed 5, 3 s) from every initial state,
# with the full cascade and with the coarse stage alone: runs whose locks and
# states change tens of times
LOSSY_SWING_DIGESTS = {
    ("full", AptState.STABILIZE):
        "801210c2426005507850678ae2885a9388d6a7028e27d60293f042d750dd0afa",
    ("full", AptState.ACQUIRE):
        "1bbf581c4b3ee4b61e79763ba4792b43641f6b08d58fc39aea2a7b137df5cf35",
    ("full", AptState.COARSE_TRACK):
        "1bbf581c4b3ee4b61e79763ba4792b43641f6b08d58fc39aea2a7b137df5cf35",
    ("full", AptState.FINE_TRACK1):
        "989ff0e3ec04503e8b606b46faad0c649e9852563edea55b3044cf525374911e",
    ("full", AptState.FINE_TRACK2):
        "e12eaf8c613a414c14edc93f2c9c838b623893c315ab5c920342ef74f45efd42",
    ("full", AptState.LINKED):
        "061e051d164bb89f623833a8d51f19731396768ed9451aee4faa97a585bb9b12",
    ("full", AptState.REACQUIRE):
        "104d72b51e865c53552d3664569e94d771d24ffd03eeeb8b1412d3c3b660fc37",
    ("coarse", AptState.STABILIZE):
        "801210c2426005507850678ae2885a9388d6a7028e27d60293f042d750dd0afa",
    ("coarse", AptState.ACQUIRE):
        "76b22f341ceecb1342b45dc56a54608ea98833e965e874291cb4b2c4419beb1c",
    ("coarse", AptState.COARSE_TRACK):
        "76b22f341ceecb1342b45dc56a54608ea98833e965e874291cb4b2c4419beb1c",
    ("coarse", AptState.FINE_TRACK1):
        "f0f673ad21f0eef7ddd039ff2d87b5b528ec0e827f7adc821e9db8e4741851d7",
    ("coarse", AptState.FINE_TRACK2):
        "3b2fcef190a41f2f3a33bfd5ba186ddd7edd3bdd2e83a0e313d55d231c42ec4e",
    ("coarse", AptState.LINKED):
        "20c2122bbc4288500859054415e41fd3ffc5d5cc1d0eec8c493da22cac9dab06",
    ("coarse", AptState.REACQUIRE):
        "2d2c52b02c66834fed0cd22bd36670bf6cb04b76b6f31c562a1cfbea96e0cb85",
}


def series_digest(series):
    digest = hashlib.sha256()
    for field in dataclasses.fields(series):
        value = getattr(series, field.name)
        if isinstance(value, np.ndarray):
            digest.update(value.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("stages, initial", list(LOSSY_SWING_DIGESTS))
def test_lossy_swing_series_are_pinned(stages, initial):
    series = run_apt(lossy_swing_scenario(), 3.0, 5, initial_state=initial,
                     **(COARSE_ONLY if stages == "coarse" else {}))
    assert series_digest(series) == LOSSY_SWING_DIGESTS[stages, initial]


class TestFuzzedScenarios:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_every_resolved_document_runs(self, data):
        # a document the resolver accepts must run: finite outputs, legal edges
        raw = mutate_json(data, DEFAULTS)
        try:
            sc = resolve_scenario(raw)
        except ScenarioError:
            return
        series = run_apt(sc, 0.05, seed=data.draw(st.integers(0, 2**64 - 1), label="seed"))
        for field in ("error_pitch_rad", "error_azimuth_rad", "gimbal_azimuth_rad",
                      "gimbal_pitch_rad", "fsm1_pitch_rad", "fsm1_azimuth_rad",
                      "fsm2_pitch_rad", "fsm2_azimuth_rad"):
            assert np.isfinite(getattr(series, field)).all(), field
        assert edges(series) <= LEGAL_EDGES

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_state_equals_replay(self, data):
        # a resolved document's state series is the replay of its locks and readings
        raw = mutate_json(data, DEFAULTS)
        try:
            sc = resolve_scenario(raw)
        except ScenarioError:
            return
        seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
        initial = data.draw(st.sampled_from(list(AptState)), label="initial state")
        stages = data.draw(st.sampled_from([{}, {"enable_fine1": True, "enable_fine2": False},
                                            {"enable_fine1": False, "enable_fine2": False}]),
                           label="stages")
        series, replay = run_and_replay(sc, 0.3, seed, initial_state=initial, **stages)
        assert np.array_equal(series.state, replay)
        assert edges(series, initial) <= LEGAL_EDGES


class TestTrackingSeries:
    def _series(self, n=10):
        z = np.zeros(n)
        return TrackingSeries(
            t_s=np.arange(n) / 1000.0,
            state=np.full(n, int(AptState.LINKED), dtype=np.int8),
            error_pitch_rad=np.arange(n) * 1e-6,
            error_azimuth_rad=z.copy(),
            gimbal_azimuth_rad=z.copy(),
            gimbal_pitch_rad=z.copy(),
            fsm1_pitch_rad=z.copy(),
            fsm1_azimuth_rad=z.copy(),
            fsm2_pitch_rad=z.copy(),
            fsm2_azimuth_rad=z.copy(),
            lock0=np.ones(n, dtype=bool),
            lock1=np.ones(n, dtype=bool),
            lock2=np.ones(n, dtype=bool),
            seed=0,
        )

    def test_window_is_half_open(self):
        s = self._series()
        w = s.window(0.002, 0.005)
        assert w.t_s.tolist() == [0.002, 0.003, 0.004]

    def test_empty_window_raises(self):
        with pytest.raises(ValueError):
            self._series().window(1.0, 2.0)

    def test_len(self):
        assert len(self._series(7)) == 7

    def test_stats_match_direct_computation(self):
        s = self._series()
        st_ = tracking_stats(s)
        radial = np.hypot(s.error_pitch_rad, s.error_azimuth_rad)
        assert st_.radial_mean_rad == pytest.approx(radial.mean(), rel=1e-12)
        assert st_.radial_std_rad == pytest.approx(radial.std(), rel=1e-12)
        assert st_.count == 10

    def test_stats_hold_no_series_long_radial_error(self):
        # the radial error is formed _SUM_BLOCK ticks at a time by each of
        # the two exact sums, beside those sums' own block temporaries; held
        # whole it would add 8 bytes a tick, 2 MB here
        n = 32 * _SUM_BLOCK
        rng = np.random.default_rng(3)
        s = dataclasses.replace(self._series(n), error_pitch_rad=rng.normal(0.0, 1e-6, n),
                                error_azimuth_rad=rng.normal(0.0, 1e-6, n))
        tracemalloc.start()
        try:
            stats = tracking_stats(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 8 * _SUM_BLOCK
        whole = summarize(np.hypot(s.error_pitch_rad, s.error_azimuth_rad))
        assert (stats.radial_mean_rad, stats.radial_std_rad, stats.count) == (
            whole.mean, whole.std, n)

    def test_window_arrays_are_views(self):
        s = self._series()
        w = s.window(0.002, 0.005)
        for name, value in vars(s).items():
            if isinstance(value, np.ndarray):
                assert np.shares_memory(getattr(w, name), value), name
        assert w.seed == s.seed

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=40), st.data())
    def test_window_is_the_comparison_of_t_s(self, ks, data):
        # on any non-decreasing t_s, repeats included, window picks exactly
        # the rows that comparing t_s with the bounds picks
        t = np.sort(np.array(ks)) / 100.0
        s = dataclasses.replace(self._series(t.size), t_s=t)
        bound = st.integers(-60, 60).map(lambda k: k / 100.0) | st.floats()
        t0, t1 = data.draw(bound, "t0"), data.draw(bound, "t1")
        expected = np.flatnonzero((t >= t0) & (t < t1))
        if expected.size:
            assert np.array_equal(s.window(t0, t1).t_s, t[expected])
        else:
            with pytest.raises(ValueError, match="selects no samples"):
                s.window(t0, t1)

    @pytest.mark.parametrize("t_s", [[0.0, 0.002, 0.001], [0.0, math.nan, 0.002], [math.nan]])
    def test_window_refuses_t_s_that_falls_or_holds_nan(self, t_s):
        s = dataclasses.replace(self._series(len(t_s)), t_s=np.array(t_s))
        with pytest.raises(ValueError, match="^t_s "):
            s.window(0.0, 1.0)

    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 3000), st.data())
    def test_tick_window_is_the_comparison_of_the_tick_times(self, n, data):
        # the slice picks exactly what comparing np.arange(n) / TICK_RATE_HZ
        # with the bounds picks; an empty selection raises
        tick = st.integers(-5, n + 5).map(lambda k: k / TICK_RATE_HZ)
        near = tick.flatmap(lambda t: st.sampled_from(
            [t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf)]))
        bound = near | st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]) | st.floats()
        t0, t1 = data.draw(bound, "t0"), data.draw(bound, "t1")
        t = np.arange(n) / TICK_RATE_HZ
        expected = np.flatnonzero((t >= t0) & (t < t1))
        if expected.size:
            assert np.array_equal(np.arange(n)[tick_window(t0, t1, n)], expected)
        else:
            with pytest.raises(ValueError):
                tick_window(t0, t1, n)
