"""Acquisition, pointing and tracking: state machine and 1 kHz loop simulation.

Stage nesting
-------------
The simulation runs in error space about the nominal (RTK-derived) pointing
solution.  Per axis, with base motion d(t), gimbal correction g(t) and
mirror deflections f1, f2:

    coarse error  e0 = bias + d - g     (seen by CMOS0)
    mid error     e1 = e0 - f1          (seen by CMOS1)
    residual      e2 = e1 - f2          (seen by CMOS2; couples into the fiber)

so each loop acts on the error left by the stages upstream of it.  The IMU
feedforward integrates measured base rate into the gimbal command in every
state; the three vision loops are enabled per state.  All loops run at the
common 1 kHz tick.

Determinism
-----------
A run is seeded by a single 64-bit integer.  Independent component streams
are derived with fixed labels (disturbance=1, cmos0=2, cmos1=3, cmos2=4,
imu=5) via numpy SeedSequence spawn keys, so the same scenario and seed
reproduce bit-identical output and adding a consumer never perturbs the
other streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import TICK_RATE_HZ, DisturbanceGenerator, lag_alpha
from .link import summarize
from .scenario import AptParams, Scenario
from .states import AptState

# AptState members as module globals: the 1 kHz loop and the state machine
# test the state several times per tick, and an enum class attribute lookup
# costs several times a global one
_STABILIZE = AptState.STABILIZE
_ACQUIRE = AptState.ACQUIRE
_COARSE_TRACK = AptState.COARSE_TRACK
_FINE_TRACK1 = AptState.FINE_TRACK1
_FINE_TRACK2 = AptState.FINE_TRACK2
_LINKED = AptState.LINKED
_REACQUIRE = AptState.REACQUIRE
_FINE1_STATES = (_FINE_TRACK1, _FINE_TRACK2, _LINKED)
_FINE2_STATES = (_FINE_TRACK2, _LINKED)
# the 1 kHz loop's flags for each state, indexed by its value: (reset the
# vision integrators, coarse loop active, FSM1 loop active, FSM2 loop active)
_LOOP_FLAGS = tuple(
    (state in (_ACQUIRE, _REACQUIRE),
     state >= _COARSE_TRACK and state != _REACQUIRE,
     state in _FINE1_STATES,
     state in _FINE2_STATES)
    for state in sorted(AptState)
)

RNG_STREAM_LABELS = {
    "disturbance": 1,
    "cmos0": 2,
    "cmos1": 3,
    "cmos2": 4,
    "imu": 5,
}


def component_rng(seed: int, component: str) -> np.random.Generator:
    """Derive the named component's generator from the run seed."""
    label = RNG_STREAM_LABELS[component]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(label,))))


# ---------------------------------------------------------------------------
# state machine

class AptStateMachine:
    """Transition logic of the acquisition chain, one call per tick.

    Edges:
      Stabilize   -> Acquire     stabilization converged (dwell)
      Acquire     -> CoarseTrack coarse camera lock
      CoarseTrack -> FineTrack1  measured coarse radial below the capture
                                 threshold and mid camera lock (stage enabled)
      FineTrack1  -> FineTrack2  fine camera lock (stage enabled)
      FineTrack2  -> Linked      measured residual below the link threshold
                                 for the dwell time
      any tracking state -> Reacquire   required locks absent for
                                 lock_loss_frames consecutive ticks
      Reacquire   -> Acquire     immediately
    """

    def __init__(self, params: AptParams, fine1_enabled: bool = True, fine2_enabled: bool = True):
        self.params = params
        self.fine1_enabled = fine1_enabled
        self.fine2_enabled = fine2_enabled
        self.state = _STABILIZE
        self.lock_loss_count = 0
        self.link_dwell_count = 0
        self.stabilize_count = 0
        # dwell times in ticks, the same float products step once formed each tick
        self._stabilize_ticks = params.stabilize_dwell_s * TICK_RATE_HZ
        self._link_dwell_ticks = params.link_dwell_s * TICK_RATE_HZ

    def set_fine_enabled(self, fine1: bool, fine2: bool) -> None:
        self.fine1_enabled = fine1
        self.fine2_enabled = fine2

    def step(
        self,
        stabilize_ok: bool,
        lock0: bool,
        lock1: bool,
        lock2: bool,
        coarse_radial_rad: float,
        fine_radial_rad: float,
    ) -> AptState:
        """Advance one tick.  Radial arguments are measured magnitudes."""
        p = self.params
        state = self.state

        if state == _STABILIZE:
            self.stabilize_count = self.stabilize_count + 1 if stabilize_ok else 0
            if self.stabilize_count >= self._stabilize_ticks:
                state = _ACQUIRE
        elif state == _ACQUIRE:
            if lock0:
                state = _COARSE_TRACK
                self.lock_loss_count = 0
        elif state == _REACQUIRE:
            state = _ACQUIRE
        else:
            # tracking states: debounced lock supervision first
            if state == _COARSE_TRACK:
                locks_ok = lock0
            elif state == _FINE_TRACK1:
                locks_ok = lock0 and lock1
            else:  # FINE_TRACK2, LINKED
                locks_ok = lock0 and lock1 and lock2
            self.lock_loss_count = 0 if locks_ok else self.lock_loss_count + 1
            if self.lock_loss_count >= p.lock_loss_frames:
                state = _REACQUIRE
                self.lock_loss_count = 0
                self.link_dwell_count = 0
            elif state == _COARSE_TRACK:
                if (
                    self.fine1_enabled
                    and lock1
                    and coarse_radial_rad < p.fine_capture_threshold_rad
                ):
                    state = _FINE_TRACK1
            elif state == _FINE_TRACK1:
                if self.fine2_enabled and lock2:
                    state = _FINE_TRACK2
            elif state == _FINE_TRACK2:
                if fine_radial_rad < p.link_threshold_rad:
                    self.link_dwell_count += 1
                    if self.link_dwell_count >= self._link_dwell_ticks:
                        state = _LINKED
                else:
                    self.link_dwell_count = 0

        self.state = state
        return state


# ---------------------------------------------------------------------------
# tracking series

@dataclass(frozen=True)
class TrackingSeries:
    """Per-tick tracking record of one run (fixed 1 kHz timestamps)."""

    t_s: np.ndarray
    state: np.ndarray  # int8 AptState values
    error_pitch_rad: np.ndarray
    error_azimuth_rad: np.ndarray
    gimbal_azimuth_rad: np.ndarray
    gimbal_pitch_rad: np.ndarray
    fsm1_pitch_rad: np.ndarray
    fsm1_azimuth_rad: np.ndarray
    fsm2_pitch_rad: np.ndarray
    fsm2_azimuth_rad: np.ndarray
    lock0: np.ndarray
    lock1: np.ndarray
    lock2: np.ndarray
    scenario_name: str
    scenario_digest: str
    seed: int

    def __len__(self) -> int:
        return self.t_s.size

    def _window_mask(self, t0_s: float, t1_s: float) -> np.ndarray:
        """Boolean selection of t0_s <= t < t1_s.  Raises on an empty selection."""
        mask = (self.t_s >= t0_s) & (self.t_s < t1_s)
        if not mask.any():
            raise ValueError(f"window [{t0_s}, {t1_s}) selects no samples")
        return mask

    def window(self, t0_s: float, t1_s: float) -> "TrackingSeries":
        """Samples with t0_s <= t < t1_s.  Raises on an empty selection."""
        mask = self._window_mask(t0_s, t1_s)
        return TrackingSeries(
            t_s=self.t_s[mask],
            state=self.state[mask],
            error_pitch_rad=self.error_pitch_rad[mask],
            error_azimuth_rad=self.error_azimuth_rad[mask],
            gimbal_azimuth_rad=self.gimbal_azimuth_rad[mask],
            gimbal_pitch_rad=self.gimbal_pitch_rad[mask],
            fsm1_pitch_rad=self.fsm1_pitch_rad[mask],
            fsm1_azimuth_rad=self.fsm1_azimuth_rad[mask],
            fsm2_pitch_rad=self.fsm2_pitch_rad[mask],
            fsm2_azimuth_rad=self.fsm2_azimuth_rad[mask],
            lock0=self.lock0[mask],
            lock1=self.lock1[mask],
            lock2=self.lock2[mask],
            scenario_name=self.scenario_name,
            scenario_digest=self.scenario_digest,
            seed=self.seed,
        )


@dataclass(frozen=True)
class TrackingStats:
    """Pointing-residual statistics over a window (all angles in radians)."""

    radial_mean_rad: float
    radial_std_rad: float
    pitch_mean_rad: float
    pitch_std_rad: float
    azimuth_mean_rad: float
    azimuth_std_rad: float
    count: int


def tracking_stats(series: TrackingSeries, t0_s: float | None = None,
                   t1_s: float | None = None) -> TrackingStats:
    """Residual statistics, optionally restricted to [t0_s, t1_s)."""
    pitch, azimuth = series.error_pitch_rad, series.error_azimuth_rad
    if t0_s is not None or t1_s is not None:
        # select the two residual arrays only, not a window copy of all of them
        mask = series._window_mask(
            t0_s if t0_s is not None else float(series.t_s[0]),
            t1_s if t1_s is not None else float(series.t_s[-1]) + 1.0,
        )
        pitch, azimuth = pitch[mask], azimuth[mask]
    radial = np.hypot(pitch, azimuth)
    s_r = summarize(radial)
    s_p = summarize(pitch)
    s_a = summarize(azimuth)
    return TrackingStats(
        radial_mean_rad=s_r.mean,
        radial_std_rad=s_r.std,
        pitch_mean_rad=s_p.mean,
        pitch_std_rad=s_p.std,
        azimuth_mean_rad=s_a.mean,
        azimuth_std_rad=s_a.std,
        count=s_r.count,
    )


# ---------------------------------------------------------------------------
# simulation loop

def tick_count(duration_s: float) -> int:
    """Number of loop ticks in a run of duration_s seconds (t = k / TICK_RATE_HZ).

    Raises ValueError when duration_s * TICK_RATE_HZ is not finite.
    """
    ticks = duration_s * TICK_RATE_HZ
    if not math.isfinite(ticks):
        raise ValueError(f"{duration_s} s has no finite tick count at {TICK_RATE_HZ:g} Hz")
    return int(round(ticks))


def run_apt(
    scenario: Scenario,
    duration_s: float,
    seed: int,
    enable_fine1: bool | None = None,
    enable_fine2: bool | None = None,
    fine_after_s: float = 0.0,
    initial_state: AptState = AptState.STABILIZE,
    enable_feedforward: bool = True,
) -> TrackingSeries:
    """Simulate the full acquisition/tracking chain for duration_s seconds.

    `enable_fine1` / `enable_fine2` select which fine stages may engage
    (None takes the scenario's apt.fine1_enabled / apt.fine2_enabled);
    `fine_after_s` keeps both fine stages disabled until that time, which
    reproduces the delayed-activation tracking experiment.
    `enable_feedforward` switches the IMU rate feedforward into the gimbal
    command (off leaves the vision loops on their own).  Identical
    arguments produce bit-identical series.
    """
    if not (duration_s > 0.0 and math.isfinite(duration_s)):
        raise ValueError("duration_s must be positive and finite")
    n = tick_count(duration_s)
    if n < 1:
        raise ValueError(f"duration_s={duration_s} rounds to zero ticks at {TICK_RATE_HZ:g} Hz")
    if enable_fine1 is None:
        enable_fine1 = scenario.apt.fine1_enabled
    if enable_fine2 is None:
        enable_fine2 = scenario.apt.fine2_enabled
    if enable_fine2 and not enable_fine1:
        raise ValueError("enable_fine2 requires enable_fine1")
    dt = 1.0 / TICK_RATE_HZ

    # component noise streams (fixed labels; see module docstring)
    dist_gen = DisturbanceGenerator(
        scenario.disturbance, component_rng(seed, "disturbance"), TICK_RATE_HZ
    )
    base = dist_gen.series(n + 1, t0_s=-dt)
    base_pitch, base_az = base[0], base[1]
    rate_pitch = np.diff(base_pitch) / dt
    rate_az = np.diff(base_az) / dt
    base_pitch = base_pitch[1:]
    base_az = base_az[1:]

    noise = {}
    for cam in ("cmos0", "cmos1", "cmos2"):
        rng = component_rng(seed, cam)
        sigma = getattr(scenario, cam).centroid_noise_rad
        noise[cam] = (sigma * rng.standard_normal(n), sigma * rng.standard_normal(n))
    imu_rng = component_rng(seed, "imu")
    imu_sigma = scenario.imu.rate_noise_rad_s
    # measured IMU rate = true rate + noise, summed in place once for all ticks
    rate_pitch += imu_sigma * imu_rng.standard_normal(n)
    rate_az += imu_sigma * imu_rng.standard_normal(n)

    # hoisted plant constants
    alpha_g = lag_alpha(scenario.gimbal.bandwidth_hz, dt)
    alpha_f1 = lag_alpha(scenario.fsm1.bandwidth_hz, dt)
    alpha_f2 = lag_alpha(scenario.fsm2.bandwidth_hz, dt)
    g_max_delta = scenario.gimbal.max_rate_rad_s * dt
    g_range_az = scenario.gimbal.azimuth_range_rad
    g_range_p = scenario.gimbal.pitch_range_rad
    f1_range = scenario.fsm1.range_rad
    f2_range = scenario.fsm2.range_rad

    cams = []
    for cam_name in ("cmos0", "cmos1", "cmos2"):
        cam = getattr(scenario, cam_name)
        cams.append((
            0.5 * cam.fov_pitch_rad,
            0.5 * cam.fov_azimuth_rad,
            cam.pixel_pitch_pitch_rad,
            cam.pixel_pitch_azimuth_rad,
        ))
    (c0_half_p, c0_half_a, c0_pp, c0_pa) = cams[0]
    (c1_half_p, c1_half_a, c1_pp, c1_pa) = cams[1]
    (c2_half_p, c2_half_a, c2_pp, c2_pa) = cams[2]

    bl0_half = 0.5 * scenario.beacon_bl0.divergence_full_angle_rad
    bl1_half = 0.5 * scenario.beacon_bl1.divergence_full_angle_rad
    bl2_half = 0.5 * scenario.beacon_bl2.divergence_full_angle_rad

    # PID gains.  With integral action (ki > 0) a loop's integrator is
    # clamped to +-limit / ki, so the integral term alone cannot exceed the
    # actuator limit (anti-windup); without it (ki == 0) the loop steers
    # relative to the actuator's current position.
    gc = scenario.gains_coarse
    c_kp, c_ki, c_kd = gc.kp, gc.ki, gc.kd
    c_integral = c_ki > 0.0
    if c_integral:
        c_bound_p, c_bound_a = g_range_p / c_ki, g_range_az / c_ki
        neg_c_bound_p, neg_c_bound_a = -c_bound_p, -c_bound_a
    g1 = scenario.gains_fsm1
    f1_kp, f1_ki, f1_kd = g1.kp, g1.ki, g1.kd
    f1_integral = f1_ki > 0.0
    f1_relative = f1_ki == 0.0
    if f1_integral:
        f1_bound = f1_range / f1_ki
        neg_f1_bound = -f1_bound
    g2 = scenario.gains_fsm2
    f2_kp, f2_ki, f2_kd = g2.kp, g2.ki, g2.kd
    f2_integral = f2_ki > 0.0
    f2_relative = f2_ki == 0.0
    if f2_integral:
        f2_bound = f2_range / f2_ki
        neg_f2_bound = -f2_bound
    p = scenario.apt
    stab_thresh = p.stabilize_rate_threshold_rad_s

    # acquisition bias split evenly across axes (radial magnitude preserved);
    # the loop's coarse error is (bias + base) - gimbal, so add bias + base
    # in place once for all ticks
    bias = p.acquisition_bias_rad / math.sqrt(2.0)
    base_pitch += bias
    base_az += bias

    machine = AptStateMachine(p, enable_fine1 and fine_after_s <= 0.0,
                              enable_fine2 and fine_after_s <= 0.0)

    # output buffers
    out_state = np.empty(n, dtype=np.int8)
    out_e2p = np.empty(n)
    out_e2a = np.empty(n)
    out_gaz = np.empty(n)
    out_gp = np.empty(n)
    out_f1p = np.empty(n)
    out_f1a = np.empty(n)
    out_f2p = np.empty(n)
    out_f2a = np.empty(n)
    out_l0 = np.empty(n, dtype=bool)
    out_l1 = np.empty(n, dtype=bool)
    out_l2 = np.empty(n, dtype=bool)

    # plant state
    g_az = g_p = 0.0              # gimbal correction
    f1_p = f1_a = f2_p = f2_a = 0.0   # mirror deflections
    ff_p = ff_a = 0.0             # feedforward command (integrated IMU rate)
    vis_p = vis_a = 0.0           # coarse vision integrators
    i1_p = i1_a = i2_p = i2_a = 0.0   # fine-loop integrators
    pe0_p = pe0_a = 0.0           # previous errors (for D terms)
    pe1_p = pe1_a = pe2_p = pe2_a = 0.0
    # errors as of the previous tick (sensors see these)
    e0_p = e0_a = bias
    e1_p, e1_a = e0_p, e0_a
    e2_p, e2_a = e0_p, e0_a
    prev_g_rate_p = prev_g_rate_a = 0.0

    machine.state = initial_state
    if initial_state == _LINKED:
        e0_p = e0_a = e1_p = e1_a = e2_p = e2_a = 0.0
    # the tick at which the fine stages are released (-1: never held back)
    handover = int(fine_after_s * TICK_RATE_HZ) if fine_after_s > 0.0 else -1

    # The loop reads and writes the float64 arrays through memoryviews:
    # indexing one yields a Python float and stores one without boxing a
    # numpy scalar, so every operation in the loop is native float math.
    n0p, n0a = map(memoryview, noise["cmos0"])
    n1p, n1a = map(memoryview, noise["cmos1"])
    n2p, n2a = map(memoryview, noise["cmos2"])
    imu_p = memoryview(rate_pitch)
    imu_a = memoryview(rate_az)
    base_p = memoryview(base_pitch)
    base_a = memoryview(base_az)
    (o_state, o_e2p, o_e2a, o_gaz, o_gp, o_f1p, o_f1a, o_f2p, o_f2a,
     o_l0, o_l1, o_l2) = map(memoryview, (
        out_state, out_e2p, out_e2a, out_gaz, out_gp, out_f1p, out_f1a,
        out_f2p, out_f2a, out_l0, out_l1, out_l2))

    floor = math.floor
    hypot = math.hypot
    step = machine.step
    loop_flags = _LOOP_FLAGS
    # negated bounds, so the loop compares and clamps without negating
    neg_c0_half_p, neg_c0_half_a = -c0_half_p, -c0_half_a
    neg_c1_half_p, neg_c1_half_a = -c1_half_p, -c1_half_a
    neg_c2_half_p, neg_c2_half_a = -c2_half_p, -c2_half_a
    neg_g_max_delta = -g_max_delta
    neg_g_range_p, neg_g_range_az = -g_range_p, -g_range_az
    neg_f1_range, neg_f2_range = -f1_range, -f2_range

    for i in range(n):
        if i == handover:
            machine.set_fine_enabled(enable_fine1, enable_fine2)

        # --- sensing (previous-tick errors; one-frame latency) ---
        # a camera sees the spot when its beacon is in view and the error is
        # inside its FOV; it reports the noisy centroid rounded to its pixel
        # pitch and clipped to the FOV
        coarse_radial = hypot(e0_p, e0_a)

        valid0 = (coarse_radial <= bl0_half and neg_c0_half_p <= e0_p <= c0_half_p
                  and neg_c0_half_a <= e0_a <= c0_half_a)
        if valid0:
            x_p = e0_p + n0p[i]
            x_a = e0_a + n0a[i]
            m0_p = floor(abs(x_p) / c0_pp + 0.5) * c0_pp
            m0_p = m0_p if x_p >= 0.0 else -m0_p
            m0_a = floor(abs(x_a) / c0_pa + 0.5) * c0_pa
            m0_a = m0_a if x_a >= 0.0 else -m0_a
            if m0_p > c0_half_p: m0_p = c0_half_p
            elif m0_p < neg_c0_half_p: m0_p = neg_c0_half_p
            if m0_a > c0_half_a: m0_a = c0_half_a
            elif m0_a < neg_c0_half_a: m0_a = neg_c0_half_a
        else:
            m0_p = m0_a = 0.0

        valid1 = (coarse_radial <= bl1_half and neg_c1_half_p <= e1_p <= c1_half_p
                  and neg_c1_half_a <= e1_a <= c1_half_a)
        if valid1:
            x_p = e1_p + n1p[i]
            x_a = e1_a + n1a[i]
            m1_p = floor(abs(x_p) / c1_pp + 0.5) * c1_pp
            m1_p = m1_p if x_p >= 0.0 else -m1_p
            m1_a = floor(abs(x_a) / c1_pa + 0.5) * c1_pa
            m1_a = m1_a if x_a >= 0.0 else -m1_a
            if m1_p > c1_half_p: m1_p = c1_half_p
            elif m1_p < neg_c1_half_p: m1_p = neg_c1_half_p
            if m1_a > c1_half_a: m1_a = c1_half_a
            elif m1_a < neg_c1_half_a: m1_a = neg_c1_half_a
        else:
            m1_p = m1_a = 0.0

        valid2 = (coarse_radial <= bl2_half and neg_c2_half_p <= e2_p <= c2_half_p
                  and neg_c2_half_a <= e2_a <= c2_half_a)
        if valid2:
            x_p = e2_p + n2p[i]
            x_a = e2_a + n2a[i]
            m2_p = floor(abs(x_p) / c2_pp + 0.5) * c2_pp
            m2_p = m2_p if x_p >= 0.0 else -m2_p
            m2_a = floor(abs(x_a) / c2_pa + 0.5) * c2_pa
            m2_a = m2_a if x_a >= 0.0 else -m2_a
            if m2_p > c2_half_p: m2_p = c2_half_p
            elif m2_p < neg_c2_half_p: m2_p = neg_c2_half_p
            if m2_a > c2_half_a: m2_a = c2_half_a
            elif m2_a < neg_c2_half_a: m2_a = neg_c2_half_a
        else:
            m2_p = m2_a = 0.0

        imu_rate_p = imu_p[i]
        imu_rate_a = imu_a[i]

        # --- state machine ---
        stab_ok = (abs(prev_g_rate_p - imu_rate_p) < stab_thresh
                   and abs(prev_g_rate_a - imu_rate_a) < stab_thresh)
        state = step(
            stab_ok, valid0, valid1, valid2,
            hypot(m0_p, m0_a), hypot(m2_p, m2_a),
        )
        reset, coarse_active, f1_active, f2_active = loop_flags[state]
        if reset:
            vis_p = vis_a = 0.0
            i1_p = i1_a = i2_p = i2_a = 0.0

        # --- control: one PID per loop and axis on the measured error ---
        if enable_feedforward:
            ff_p += imu_rate_p * dt
            ff_a += imu_rate_a * dt
        if coarse_active:
            vis_p += m0_p * dt
            vis_a += m0_a * dt
            if c_integral:
                if vis_p > c_bound_p: vis_p = c_bound_p
                elif vis_p < neg_c_bound_p: vis_p = neg_c_bound_p
                if vis_a > c_bound_a: vis_a = c_bound_a
                elif vis_a < neg_c_bound_a: vis_a = neg_c_bound_a
            cmd_p = c_kp * m0_p + c_ki * vis_p + c_kd * (m0_p - pe0_p) / dt
            cmd_a = c_kp * m0_a + c_ki * vis_a + c_kd * (m0_a - pe0_a) / dt
            pe0_p, pe0_a = m0_p, m0_a
        else:
            cmd_p = cmd_a = 0.0
            pe0_p = pe0_a = 0.0
        # integral control carries the absolute vision command; proportional-only
        # configurations steer relative to the current position instead
        if c_integral:
            g_cmd_p = ff_p + cmd_p
            g_cmd_a = ff_a + cmd_a
        else:
            g_cmd_p = g_p + cmd_p
            g_cmd_a = g_az + cmd_a

        if f1_active:
            i1_p += m1_p * dt
            i1_a += m1_a * dt
            if f1_integral:
                if i1_p > f1_bound: i1_p = f1_bound
                elif i1_p < neg_f1_bound: i1_p = neg_f1_bound
                if i1_a > f1_bound: i1_a = f1_bound
                elif i1_a < neg_f1_bound: i1_a = neg_f1_bound
            f1_cmd_p = f1_kp * m1_p + f1_ki * i1_p + f1_kd * (m1_p - pe1_p) / dt
            f1_cmd_a = f1_kp * m1_a + f1_ki * i1_a + f1_kd * (m1_a - pe1_a) / dt
            if f1_relative:
                f1_cmd_p += f1_p
                f1_cmd_a += f1_a
            pe1_p, pe1_a = m1_p, m1_a
        else:
            f1_cmd_p = f1_cmd_a = 0.0
            pe1_p = pe1_a = 0.0
        if f2_active:
            i2_p += m2_p * dt
            i2_a += m2_a * dt
            if f2_integral:
                if i2_p > f2_bound: i2_p = f2_bound
                elif i2_p < neg_f2_bound: i2_p = neg_f2_bound
                if i2_a > f2_bound: i2_a = f2_bound
                elif i2_a < neg_f2_bound: i2_a = neg_f2_bound
            f2_cmd_p = f2_kp * m2_p + f2_ki * i2_p + f2_kd * (m2_p - pe2_p) / dt
            f2_cmd_a = f2_kp * m2_a + f2_ki * i2_a + f2_kd * (m2_a - pe2_a) / dt
            if f2_relative:
                f2_cmd_p += f2_p
                f2_cmd_a += f2_a
            pe2_p, pe2_a = m2_p, m2_a
        else:
            f2_cmd_p = f2_cmd_a = 0.0
            pe2_p = pe2_a = 0.0

        # --- actuators ---
        new_g_p = g_p + alpha_g * (g_cmd_p - g_p)
        dlt = new_g_p - g_p
        if dlt > g_max_delta: new_g_p = g_p + g_max_delta
        elif dlt < neg_g_max_delta: new_g_p = g_p - g_max_delta
        if new_g_p > g_range_p: new_g_p = g_range_p
        elif new_g_p < neg_g_range_p: new_g_p = neg_g_range_p
        prev_g_rate_p = (new_g_p - g_p) / dt
        g_p = new_g_p

        new_g_a = g_az + alpha_g * (g_cmd_a - g_az)
        dlt = new_g_a - g_az
        if dlt > g_max_delta: new_g_a = g_az + g_max_delta
        elif dlt < neg_g_max_delta: new_g_a = g_az - g_max_delta
        if new_g_a > g_range_az: new_g_a = g_range_az
        elif new_g_a < neg_g_range_az: new_g_a = neg_g_range_az
        prev_g_rate_a = (new_g_a - g_az) / dt
        g_az = new_g_a

        f1_p += alpha_f1 * (f1_cmd_p - f1_p)
        if f1_p > f1_range: f1_p = f1_range
        elif f1_p < neg_f1_range: f1_p = neg_f1_range
        f1_a += alpha_f1 * (f1_cmd_a - f1_a)
        if f1_a > f1_range: f1_a = f1_range
        elif f1_a < neg_f1_range: f1_a = neg_f1_range

        f2_p += alpha_f2 * (f2_cmd_p - f2_p)
        if f2_p > f2_range: f2_p = f2_range
        elif f2_p < neg_f2_range: f2_p = neg_f2_range
        f2_a += alpha_f2 * (f2_cmd_a - f2_a)
        if f2_a > f2_range: f2_a = f2_range
        elif f2_a < neg_f2_range: f2_a = neg_f2_range

        # --- new errors ---
        e0_p = base_p[i] - g_p
        e0_a = base_a[i] - g_az
        e1_p = e0_p - f1_p
        e1_a = e0_a - f1_a
        e2_p = e1_p - f2_p
        e2_a = e1_a - f2_a

        o_state[i] = state
        o_e2p[i] = e2_p
        o_e2a[i] = e2_a
        o_gaz[i] = g_az
        o_gp[i] = g_p
        o_f1p[i] = f1_p
        o_f1a[i] = f1_a
        o_f2p[i] = f2_p
        o_f2a[i] = f2_a
        o_l0[i] = valid0
        o_l1[i] = valid1
        o_l2[i] = valid2

    return TrackingSeries(
        t_s=np.arange(n) / TICK_RATE_HZ,
        state=out_state,
        error_pitch_rad=out_e2p,
        error_azimuth_rad=out_e2a,
        gimbal_azimuth_rad=out_gaz,
        gimbal_pitch_rad=out_gp,
        fsm1_pitch_rad=out_f1p,
        fsm1_azimuth_rad=out_f1a,
        fsm2_pitch_rad=out_f2p,
        fsm2_azimuth_rad=out_f2a,
        lock0=out_l0,
        lock1=out_l1,
        lock2=out_l2,
        scenario_name=scenario.name,
        scenario_digest=scenario.digest,
        seed=seed,
    )
