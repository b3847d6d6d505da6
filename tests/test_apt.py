import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsosim import (
    AptParams,
    AptState,
    AptStateMachine,
    ScenarioError,
    TrackingSeries,
    component_rng,
    resolve_scenario,
    run_apt,
    tracking_stats,
)
from fsosim.apt import RNG_STREAM_LABELS, TICK_RATE_HZ, tick_count
from fsosim.dynamics import lag_alpha
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

PARAMS = AptParams()


DT = 1.0 / TICK_RATE_HZ
RESET_STATES = (int(AptState.ACQUIRE), int(AptState.REACQUIRE))
# each mirror loop: its camera, its lock flag and the states that run it
MIRROR_LOOPS = {
    "fsm1": ("cmos1", "lock1", (int(AptState.FINE_TRACK1), int(AptState.FINE_TRACK2),
                                int(AptState.LINKED))),
    "fsm2": ("cmos2", "lock2", (int(AptState.FINE_TRACK2), int(AptState.LINKED))),
}
STAGE_AXES = [(stage, axis) for stage in MIRROR_LOOPS for axis in ("pitch", "azimuth")]


def mirror_run(stage, **overrides):
    """2 s from Linked in which only `stage`'s mirror loop moves its mirror.

    Noise-free defaults with 2 Hz (pitch) and 3 Hz (azimuth) 200 urad
    sinusoids.  With the IMU feedforward off they reach the fine cameras
    almost unreduced, so the mirror sees a residual swinging both ways.
    The other mirror has no gains and stays at 0, so the run's residual
    `error_*` is the error `stage`'s camera reads one tick later.  No
    acquisition bias: started in Linked, the loop holds every lock.
    `overrides` are control.<stage>.* and <stage>.* keys without the prefix.
    """
    other = "fsm1" if stage == "fsm2" else "fsm2"
    raw = zero_noise_overrides()
    raw.update({
        "apt.acquisition_bias_urad": 0.0,
        f"control.{other}.ki": 0.0,
        "disturbance.pitch.sinusoids": sinusoid(200.0, 2.0),
        "disturbance.azimuth.sinusoids": sinusoid(200.0, 3.0),
    })
    for key, value in overrides.items():
        raw[f"{stage}.{key}" if key == "range_urad" else f"control.{stage}.{key}"] = value
    sc = make_scenario(**raw)
    series = run_apt(sc, 2.0, seed=0, initial_state=AptState.LINKED,
                     enable_feedforward=False)
    assert (series.state == int(AptState.LINKED)).all()
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


lock_step = st.tuples(
    st.booleans(), st.booleans(), st.booleans(), st.booleans(),
    st.floats(0.0, 10e-3), st.floats(0.0, 500e-6),
)


class TestStateMachine:
    @given(st.lists(lock_step, min_size=1, max_size=400))
    @settings(max_examples=300, deadline=None)
    def test_only_legal_edges(self, steps):
        machine = AptStateMachine(PARAMS)
        prev = machine.state
        for stab, l0, l1, l2, coarse_r, fine_r in steps:
            nxt = machine.step(stab, l0, l1, l2, coarse_r, fine_r)
            assert (prev, nxt) in LEGAL_EDGES
            prev = nxt

    @given(st.lists(lock_step, min_size=1, max_size=400))
    @settings(max_examples=150, deadline=None)
    def test_fine_states_unreachable_when_disabled(self, steps):
        machine = AptStateMachine(PARAMS, fine1_enabled=False, fine2_enabled=False)
        for stab, l0, l1, l2, coarse_r, fine_r in steps:
            state = machine.step(stab, l0, l1, l2, coarse_r, fine_r)
            assert state not in (AptState.FINE_TRACK1, AptState.FINE_TRACK2, AptState.LINKED)

    def test_lock_loss_debounce_is_exact(self):
        machine = AptStateMachine(PARAMS)
        machine.state = AptState.COARSE_TRACK
        for _ in range(PARAMS.lock_loss_frames - 1):
            assert machine.step(True, False, False, False, 0.0, 0.0) == AptState.COARSE_TRACK
        assert machine.step(True, False, False, False, 0.0, 0.0) == AptState.REACQUIRE

    def test_debounce_counter_resets_on_lock(self):
        machine = AptStateMachine(PARAMS)
        machine.state = AptState.COARSE_TRACK
        for _ in range(PARAMS.lock_loss_frames - 1):
            machine.step(True, False, False, False, 0.0, 0.0)
        machine.step(True, True, False, False, 10e-3, 0.0)  # lock returns
        for _ in range(PARAMS.lock_loss_frames - 1):
            assert machine.step(True, False, False, False, 0.0, 0.0) == AptState.COARSE_TRACK

    def test_linked_requires_dwell(self):
        machine = AptStateMachine(PARAMS)
        machine.state = AptState.FINE_TRACK2
        need = int(PARAMS.link_dwell_s * TICK_RATE_HZ)
        for _ in range(need - 1):
            assert machine.step(True, True, True, True, 1e-3, 10e-6) == AptState.FINE_TRACK2
        assert machine.step(True, True, True, True, 1e-3, 10e-6) == AptState.LINKED

    def test_dwell_resets_when_threshold_exceeded(self):
        machine = AptStateMachine(PARAMS)
        machine.state = AptState.FINE_TRACK2
        need = int(PARAMS.link_dwell_s * TICK_RATE_HZ)
        for _ in range(need - 1):
            machine.step(True, True, True, True, 1e-3, 10e-6)
        machine.step(True, True, True, True, 1e-3, 200e-6)  # residual spike
        for _ in range(need - 1):
            assert machine.step(True, True, True, True, 1e-3, 10e-6) == AptState.FINE_TRACK2
        assert machine.step(True, True, True, True, 1e-3, 10e-6) == AptState.LINKED

    def test_stabilize_dwell(self):
        machine = AptStateMachine(PARAMS)
        need = int(PARAMS.stabilize_dwell_s * TICK_RATE_HZ)
        for _ in range(need - 1):
            assert machine.step(True, False, False, False, 0.0, 0.0) == AptState.STABILIZE
        assert machine.step(True, False, False, False, 0.0, 0.0) == AptState.ACQUIRE

    def test_coarse_capture_needs_threshold_and_mid_lock(self):
        machine = AptStateMachine(PARAMS)
        machine.state = AptState.COARSE_TRACK
        r = PARAMS.fine_capture_threshold_rad
        assert machine.step(True, True, True, False, r, 0.0) == AptState.COARSE_TRACK
        assert machine.step(True, True, False, False, 0.5 * r, 0.0) == AptState.COARSE_TRACK
        assert machine.step(True, True, True, False, 0.5 * r, 0.0) == AptState.FINE_TRACK1


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
        mean_on = tracking_stats(on, 3.0, 8.0).radial_mean_rad
        mean_off = tracking_stats(off, 3.0, 8.0).radial_mean_rad
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

    def test_loop_calls_the_shared_controller_and_state_machine(self, scenario,
                                                                monkeypatch):
        # the loop runs the one state machine, one step per tick (the PID
        # updates are checked through run_apt in TestPidStep)
        calls = 0
        original = AptStateMachine.step

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(AptStateMachine, "step", counted)
        series = run_apt(scenario, 2.0, seed=1, initial_state=AptState.LINKED)
        assert calls == len(series)

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
        states = [AptState.STABILIZE] + [AptState(s) for s in series.state]
        assert set(zip(states, states[1:])) <= LEGAL_EDGES


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
            scenario_name="t",
            scenario_digest="d",
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

    @pytest.mark.parametrize("t0, t1, w0, w1", [
        (0.002, 0.007, 0.002, 0.007), (0.004, None, 0.004, 1.0), (None, 0.003, 0.0, 0.003),
    ])
    def test_windowed_stats_equal_stats_of_the_window(self, t0, t1, w0, w1):
        s = self._series()
        s = dataclasses.replace(s, error_azimuth_rad=np.sin(s.t_s) * 1e-6)
        assert tracking_stats(s, t0, t1) == tracking_stats(s.window(w0, w1))
        with pytest.raises(ValueError):
            tracking_stats(s, 1.0, 2.0)
