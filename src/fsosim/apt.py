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

State machine
-------------
`run_apt` advances the acquisition chain once per tick, after sensing and
before control, on the cameras' lock flags and measured readings:

  Stabilize   -> Acquire     the gimbal's last rate within the stabilize
                             threshold of the IMU rate on both axes, for
                             the stabilize dwell
  Acquire     -> CoarseTrack coarse camera lock
  CoarseTrack -> FineTrack1  measured coarse radial below the capture
                             threshold and mid camera lock (stage enabled)
  FineTrack1  -> FineTrack2  fine camera lock (stage enabled)
  FineTrack2  -> Linked      fine camera lock and measured fine radial
                             below the link threshold, in every tick of
                             the link dwell
  any tracking state -> Reacquire   a lock the state needs (coarse; mid
                             from FineTrack1; fine from FineTrack2) absent
                             for lock_loss_frames consecutive ticks
  Reacquire   -> Acquire     immediately

Acquire and Reacquire reset the vision integrators.  Every other tick
stays in its state.

Determinism
-----------
A run is seeded by one integer in [0, 2**64).  Independent component streams
are derived with fixed labels (disturbance=1, cmos0=2, cmos1=3, cmos2=4,
imu=5) via numpy SeedSequence spawn keys, so the same scenario and seed
reproduce bit-identical output and adding a consumer never perturbs the
other streams.  Each component's stream holds its warm-up draws, then n
pitch draws, then n azimuth draws, for its n samples.  Only the disturbance
warms up (its noise filters), its n is the ticks plus one, and a still axis
of it draws nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import TICK_RATE_HZ, DisturbanceGenerator, _past_normals, lag_alpha
from .link import summarize
from .optics import _check_fits
from .scenario import Scenario
from .states import AptState

# the states as plain ints: the 1 kHz loop compares the state several times
# per tick and indexes _LOOP_FLAGS with it, and an exact int takes 3.11's
# int compare and tuple index fast paths where an IntEnum member does not
_STABILIZE = int(AptState.STABILIZE)
_ACQUIRE = int(AptState.ACQUIRE)
_COARSE_TRACK = int(AptState.COARSE_TRACK)
_FINE_TRACK1 = int(AptState.FINE_TRACK1)
_FINE_TRACK2 = int(AptState.FINE_TRACK2)
_LINKED = int(AptState.LINKED)
_REACQUIRE = int(AptState.REACQUIRE)
# the 1 kHz loop's flags for each state, indexed by its value: (reset the
# vision integrators, coarse loop active, FSM1 loop active, FSM2 loop active)
_LOOP_FLAGS = tuple(
    (state in (_ACQUIRE, _REACQUIRE),
     state >= _COARSE_TRACK and state != _REACQUIRE,
     state in (_FINE_TRACK1, _FINE_TRACK2, _LINKED),
     state in (_FINE_TRACK2, _LINKED))
    for state in range(len(AptState))
)

RNG_STREAM_LABELS = {
    "disturbance": 1,
    "cmos0": 2,
    "cmos1": 3,
    "cmos2": 4,
    "imu": 5,
}


def _check_seed(seed: int) -> None:
    """Refuse a run seed that is not an integer in [0, 2**64), naming `seed`."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")


def component_rng(seed: int, component: str) -> np.random.Generator:
    """Derive the named component's generator from the run seed."""
    label = RNG_STREAM_LABELS[component]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(label,))))


# ---------------------------------------------------------------------------
# the tick grid: tick k of a run is at t = k / TICK_RATE_HZ

def tick_count(duration_s: float) -> int:
    """Number of loop ticks in a run of duration_s seconds (t = k / TICK_RATE_HZ).

    Raises ValueError when duration_s * TICK_RATE_HZ is not finite.
    """
    ticks = duration_s * TICK_RATE_HZ
    if not math.isfinite(ticks):
        raise ValueError(f"{duration_s} s has no finite tick count at {TICK_RATE_HZ:g} Hz")
    return int(round(ticks))


def _first(time_of, n: int, t_s: float) -> int:
    """The first index k < n with time_of(k) >= t_s, or n when there is none,
    for times that never fall.  Bisects on plain ints, as n may be a tick
    count beyond what a range or an array can hold."""
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi) // 2
        if time_of(mid) < t_s:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _window(time_of, n: int, t0_s: float, t1_s: float) -> slice:
    """The indices k < n with t0_s <= time_of(k) < t1_s, as a slice, for
    times that never fall.  Raises ValueError when the window holds no
    index, as with a NaN bound."""
    if t0_s < t1_s:
        start, stop = _first(time_of, n, t0_s), _first(time_of, n, t1_s)
        if start < stop:
            return slice(start, stop)
    raise ValueError(f"window [{t0_s}, {t1_s}) selects no samples")


def _tick_time(k: int) -> float:
    """The time of tick k, in seconds."""
    return k / TICK_RATE_HZ


def tick_window(t0_s: float, t1_s: float, n: int) -> slice:
    """The ticks k < n with t0_s <= k / TICK_RATE_HZ < t1_s, as a slice.

    The rule for which ticks a run's statistics window holds, so a caller
    can check the window before the run (n = tick_count(duration_s)); on a
    series' t_s, as run_apt builds it, `TrackingSeries.window` picks the
    same ticks.  Raises ValueError when the window holds no tick, as with a
    NaN bound.
    """
    return _window(_tick_time, n, t0_s, t1_s)


# ---------------------------------------------------------------------------
# tracking series

@dataclass(frozen=True, eq=False)
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
    seed: int

    def __len__(self) -> int:
        return self.t_s.size

    def window(self, t0_s: float, t1_s: float) -> "TrackingSeries":
        """The rows with t0_s <= t_s < t1_s, found by bisection on t_s, as
        views of this series' arrays (no copy).  Raises ValueError on an
        empty selection, or when t_s falls or holds NaN."""
        t = self.t_s
        if np.isnan(t).any() or (t[1:] < t[:-1]).any():
            raise ValueError("t_s must not fall or hold NaN to be windowed by time")
        ticks = _window(t.item, len(self), t0_s, t1_s)
        return replace(self, **{name: value[ticks] for name, value in vars(self).items()
                                if isinstance(value, np.ndarray)})


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


def tracking_stats(series: TrackingSeries) -> TrackingStats:
    """Residual statistics of the whole series; those of the window [t0_s,
    t1_s) are `tracking_stats(series.window(t0_s, t1_s))`."""
    pitch, azimuth = series.error_pitch_rad, series.error_azimuth_rad
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

# ticks of base motion, IMU rate, camera noise and feedforward made at a
# time: the 1 kHz loop holds one block of these inputs, not the run's
_INPUT_BLOCK = 8192


def _axis_rngs(seed: int, component: str, n: int) -> tuple:
    """The named component's (pitch, azimuth) generators for a run of n
    ticks: its generator, and a copy stepped past pitch's n draws."""
    rng = component_rng(seed, component)
    return rng, _past_normals(rng, n)


def _input_blocks(scenario: Scenario, seed: int, n: int, disturbance: DisturbanceGenerator,
                  bias: float, enable_feedforward: bool):
    """The 1 kHz loop's per-tick inputs, _INPUT_BLOCK ticks at a time.

    For each block, from tick lo: (lo, the biased base angles (pitch,
    azimuth) as arrays, the measured IMU rate (pitch, azimuth) as
    memoryviews, and a zip of memoryviews (each item a Python float, no
    copy) of the three cameras' centroid noise (pitch, azimuth), the
    feedforward (pitch, azimuth) and the biased base angles (pitch,
    azimuth)).

    The values are those of whole-run arrays.  The base angle of tick k is
    sample k + 1 of the disturbance series from t = -dt (`disturbance` is
    built for n + 1 samples) plus `bias`, and its rate is the difference to
    sample k over dt: each block's first difference takes the previous
    block's last sample.  The measured IMU rate adds the IMU noise to that
    rate.  The cameras' and the IMU's noise come from `_axis_rngs`, and
    standard_normal draws the same values in blocks as in one call.  The
    feedforward is the running sum of the measured rate * dt, the tick's
    `ff += rate * dt` from ff = +0.0: each block adds the previous block's
    last sum to its first term and cumsum sums in index order, so the
    floats are the tick's; the first block's +0.0 turns a -0.0 first term
    into the +0.0 that the tick's first sum gives.
    """
    dt = 1.0 / TICK_RATE_HZ
    imu_sigma = scenario.imu.rate_noise_rad_s
    imu_pitch_rng, imu_az_rng = _axis_rngs(seed, "imu", n)
    cams = [(getattr(scenario, cam).centroid_noise_rad, *_axis_rngs(seed, cam, n))
            for cam in ("cmos0", "cmos1", "cmos2")]
    (last_p,), (last_a,) = disturbance.series(1, t0_s=-dt)
    carry_p = carry_a = 0.0
    for lo in range(0, n, _INPUT_BLOCK):
        hi = min(lo + _INPUT_BLOCK, n)
        base_p, base_a = disturbance.series(hi - lo, t0_s=-dt, start=lo + 1)
        rate_p = np.diff(base_p, prepend=last_p) / dt
        rate_a = np.diff(base_a, prepend=last_a) / dt
        last_p, last_a = base_p[-1], base_a[-1]
        rate_p += imu_sigma * imu_pitch_rng.standard_normal(hi - lo)
        rate_a += imu_sigma * imu_az_rng.standard_normal(hi - lo)
        base_p += bias
        base_a += bias
        noise = [sigma * rng.standard_normal(hi - lo)
                 for sigma, pitch_rng, az_rng in cams for rng in (pitch_rng, az_rng)]
        if enable_feedforward:
            ff_p, ff_a = rate_p * dt, rate_a * dt
            ff_p[0] += carry_p
            ff_a[0] += carry_a
            np.cumsum(ff_p, out=ff_p)
            np.cumsum(ff_a, out=ff_a)
            carry_p, carry_a = ff_p[-1], ff_a[-1]
        else:
            ff_p = ff_a = np.zeros(hi - lo)
        yield (lo, (base_p, base_a), (memoryview(rate_p), memoryview(rate_a)),
               zip(*map(memoryview, (*noise, ff_p, ff_a, base_p, base_a))))


def _hold(log: list, columns: tuple) -> None:
    """Fill per-tick columns from a change log: rows (tick, value, ...) with
    ticks rising from 0, each row's values written from its tick up to the
    next row's (a row followed by one of the same tick writes nothing), the
    last row's to the end."""
    ends = [row[0] for row in log[1:]] + [None]
    for (tick, *values), end in zip(log, ends):
        for column, value in zip(columns, values):
            column[tick:end] = value


def _camera_constants(cam) -> tuple[float, ...]:
    """A camera's half-FOVs and pixel pitches with their negations, as the
    1 kHz loop gates, clips and rounds with them: (half_p, half_a, -half_p,
    -half_a, pp, pa, -pp, -pa).  A reading rounds |x| / pitch half away
    from zero and takes the sign of x; with y = x / pitch, |x| / pitch + 0.5
    is 0.5 - y when x < 0 (IEEE division is sign-symmetric), so
    floor(0.5 - y) * -pitch is that reading bit for bit, a zero one as -0.0.
    """
    half_p, half_a = 0.5 * cam.fov_pitch_rad, 0.5 * cam.fov_azimuth_rad
    pp, pa = cam.pixel_pitch_pitch_rad, cam.pixel_pitch_azimuth_rad
    return half_p, half_a, -half_p, -half_a, pp, pa, -pp, -pa


def _pid_constants(gains, *limits: float) -> tuple:
    """A loop's (kp, ki, kd, integral, pd), then (limit / ki, -limit / ki)
    for each actuator limit.

    With integral action (ki > 0) the loop clamps its integrator to
    +-limit / ki, so the integral term alone cannot exceed the limit
    (anti-windup); without it the loop steers relative to the actuator's
    position and never reads those bounds (inf here).  A loop with P or D
    action (`pd`) forms kp * m + ki * integ + kd * (m - prev) / dt and keeps
    its previous reading; an integral-only one forms ki * integ alone.  The
    dropped terms are +-0.0, so the command can differ only in the sign of
    a zero, and it reaches its actuator through a sum with the feedforward
    or the position, which are never -0.0 (they start at +0.0, and an IEEE
    sum is -0.0 only when both its terms are): every output bit is kept.
    """
    kp, ki, kd = gains.kp, gains.ki, gains.kd
    integral = ki > 0.0
    bounds = [limit / ki if integral else math.inf for limit in limits]
    return (kp, ki, kd, integral, not (kp == 0.0 and kd == 0.0 and integral),
            *((bound, -bound) for bound in bounds))


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
    `fine_after_s` keeps both fine stages disabled until that time (they
    may engage from the first tick at or after it, the first tick of the
    window `tick_window(fine_after_s, ...)`), which reproduces the
    delayed-activation tracking experiment.
    `enable_feedforward` switches the IMU rate feedforward into the gimbal
    command (off leaves the vision loops on their own).  `seed` is an
    integer in [0, 2**64).  Identical arguments produce bit-identical
    series.

    The run holds whole only the series it returns (76 bytes per tick); it
    makes the base motion, the measured IMU rate, the camera noise and the
    feedforward a block of ticks at a time.

    Raises ValueError, before any array is allocated, naming `seed` when it
    is not an integer in [0, 2**64); naming `duration_s` when it is not
    positive, has no finite tick count, rounds to zero ticks or would not
    let what the run holds whole fit in memory; naming `fine_after_s` when
    it is negative or not finite; and when enable_fine2 is set without
    enable_fine1.
    """
    _check_seed(seed)
    if not (duration_s > 0.0 and math.isfinite(duration_s)):
        raise ValueError("duration_s must be positive and finite")
    try:
        n = tick_count(duration_s)
    except ValueError as exc:
        raise ValueError(f"duration_s: {exc}") from None
    if n < 1:
        raise ValueError(f"duration_s {duration_s} s rounds to zero ticks at {TICK_RATE_HZ:g} Hz")
    # bytes per tick that the run holds whole: the returned series' nine
    # float64 arrays (t_s and the angles) and four one-byte arrays (state and
    # the lock flags)
    _check_fits("duration_s", n, f"{TICK_RATE_HZ:g} Hz ticks", 9 * 8 + 4)
    if enable_fine1 is None:
        enable_fine1 = scenario.apt.fine1_enabled
    if enable_fine2 is None:
        enable_fine2 = scenario.apt.fine2_enabled
    if enable_fine2 and not enable_fine1:
        raise ValueError("enable_fine2 requires enable_fine1")
    if not (fine_after_s >= 0.0 and math.isfinite(fine_after_s)):
        raise ValueError(f"fine_after_s must be >= 0 and finite, got {fine_after_s}")
    dt = 1.0 / TICK_RATE_HZ

    # component noise streams (fixed labels; see module docstring); the base
    # motion is sampled from one tick before the first, for its first rate
    disturbance = DisturbanceGenerator(scenario.disturbance, component_rng(seed, "disturbance"),
                                       n + 1)

    # hoisted plant constants
    alpha_g = lag_alpha(scenario.gimbal.bandwidth_hz, dt)
    alpha_f1 = lag_alpha(scenario.fsm1.bandwidth_hz, dt)
    alpha_f2 = lag_alpha(scenario.fsm2.bandwidth_hz, dt)
    g_max_delta = scenario.gimbal.max_rate_rad_s * dt
    g_range_az = scenario.gimbal.azimuth_range_rad
    g_range_p = scenario.gimbal.pitch_range_rad
    f1_range = scenario.fsm1.range_rad
    f2_range = scenario.fsm2.range_rad

    (c0_half_p, c0_half_a, neg_c0_half_p, neg_c0_half_a,
     c0_pp, c0_pa, neg_c0_pp, neg_c0_pa) = _camera_constants(scenario.cmos0)
    (c1_half_p, c1_half_a, neg_c1_half_p, neg_c1_half_a,
     c1_pp, c1_pa, neg_c1_pp, neg_c1_pa) = _camera_constants(scenario.cmos1)
    (c2_half_p, c2_half_a, neg_c2_half_p, neg_c2_half_a,
     c2_pp, c2_pa, neg_c2_pp, neg_c2_pa) = _camera_constants(scenario.cmos2)

    bl0_half = 0.5 * scenario.beacon_bl0.divergence_full_angle_rad
    bl1_half = 0.5 * scenario.beacon_bl1.divergence_full_angle_rad
    bl2_half = 0.5 * scenario.beacon_bl2.divergence_full_angle_rad

    (c_kp, c_ki, c_kd, c_integral, c_pd, (c_bound_p, neg_c_bound_p),
     (c_bound_a, neg_c_bound_a)) = _pid_constants(scenario.gains_coarse, g_range_p, g_range_az)
    (f1_kp, f1_ki, f1_kd, f1_integral, f1_pd,
     (f1_bound, neg_f1_bound)) = _pid_constants(scenario.gains_fsm1, f1_range)
    (f2_kp, f2_ki, f2_kd, f2_integral, f2_pd,
     (f2_bound, neg_f2_bound)) = _pid_constants(scenario.gains_fsm2, f2_range)
    p = scenario.apt
    stab_thresh = p.stabilize_rate_threshold_rad_s

    # acquisition bias split evenly across axes (radial magnitude preserved);
    # the loop's coarse error is (bias + base) - gimbal
    bias = p.acquisition_bias_rad / math.sqrt(2.0)

    # the state machine's thresholds, and its dwell times in ticks (float
    # products, compared with the integer tick counts)
    capture_thresh = p.fine_capture_threshold_rad
    link_thresh = p.link_threshold_rad
    lock_loss_frames = p.lock_loss_frames
    stab_ticks = p.stabilize_dwell_s * TICK_RATE_HZ
    link_dwell_ticks = p.link_dwell_s * TICK_RATE_HZ
    # fine_after_s holds both fine stages back until the handover tick, the
    # first at or after it (n: never handed over), by the rule that picks a
    # statistics window's ticks
    handover = _first(_tick_time, n, fine_after_s)

    # output buffers; the residual columns are formed after each block's
    # ticks, and the state and lock columns are filled from their change logs
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
    g_last_a = g_last_p = 0.0     # gimbal correction one tick earlier
    f1_p = f1_a = f2_p = f2_a = 0.0   # mirror deflections
    vis_p = vis_a = 0.0           # coarse vision integrators
    i1_p = i1_a = i2_p = i2_a = 0.0   # fine-loop integrators
    pe0_p = pe0_a = 0.0           # previous errors (for D terms)
    pe1_p = pe1_a = pe2_p = pe2_a = 0.0
    # errors as of the previous tick (sensors see these)
    e0_p = e0_a = bias
    e1_p, e1_a = e0_p, e0_a
    e2_p, e2_a = e0_p, e0_a
    # state machine: the state and its tick counters
    state = int(initial_state)
    stab_count = 0                # consecutive stabilized ticks
    loss_count = 0                # consecutive ticks without a needed lock
    dwell_count = 0               # consecutive fine-locked ticks below the link threshold
    if state == _LINKED:
        e0_p = e0_a = e1_p = e1_a = e2_p = e2_a = 0.0

    # The loop reads its ten per-tick inputs from _input_blocks, which makes
    # them one block of ticks at a time and hands each block over as
    # memoryviews (each item a Python float, no copy), and writes the six
    # actuator angles through memoryviews of the preallocated outputs, so
    # every operation in the loop is native float math.  The block's
    # measured IMU rate, which only Stabilize reads, is indexed there.  The
    # state and the lock flags, which hold for many ticks (a default 70 s
    # run changes its locks once and its state five times), are logged only
    # in the ticks that change them, and their columns are filled by slices
    # after the loop.
    blocks = _input_blocks(scenario, seed, n, disturbance, bias, enable_feedforward)
    (o_gaz, o_gp, o_f1p, o_f1a, o_f2p, o_f2a) = map(
        memoryview, (out_gaz, out_gp, out_f1p, out_f1a, out_f2p, out_f2a))
    # (tick, state) from tick 0, then a row in each tick that changes the state
    state_log = [(0, state)]
    # (tick, lock0, lock1, lock2) in each tick whose flags are not the
    # previous tick's, the first tick included
    lock_log = []
    lock0 = lock1 = lock2 = None

    # The tick decides nothing that is fixed for the run or changes only with
    # the state: each loop's PID form (`*_pd`) and the feedforward (`ff_*`,
    # summed in _input_blocks) are hoisted, and the loop flags are looked up when the
    # state changes.  Each keeps the tick's IEEE operations and their order,
    # so the series are bit-identical to deciding every tick.
    floor = math.floor
    hypot = math.hypot
    loop_flags = _LOOP_FLAGS
    # the loop flags of the state, looked up again when the state changes
    # (the integrators start at zero, so the first tick needs no reset)
    flags_state = state
    _, coarse_active, f1_active, f2_active = loop_flags[state]
    # negated bounds, so the loop compares and clamps without negating
    neg_g_max_delta = -g_max_delta
    neg_g_range_p, neg_g_range_az = -g_range_p, -g_range_az
    neg_f1_range, neg_f2_range = -f1_range, -f2_range

    for lo, (base_p, base_a), (imu_rate_p, imu_rate_a), ticks in blocks:
        for i, (n0_p, n0_a, n1_p, n1_a, n2_p, n2_a, ff_p, ff_a,
                base_i_p, base_i_a) in enumerate(ticks, lo):
            # --- sensing (previous-tick errors; one-frame latency) ---
            # a camera sees the spot when its beacon is in view and the error is
            # inside its FOV; it reports the noisy centroid rounded to its pixel
            # pitch and clipped to the FOV
            coarse_radial = hypot(e0_p, e0_a)

            valid0 = (coarse_radial <= bl0_half and neg_c0_half_p <= e0_p <= c0_half_p
                      and neg_c0_half_a <= e0_a <= c0_half_a)
            if valid0:
                x_p = e0_p + n0_p
                x_a = e0_a + n0_a
                y = x_p / c0_pp
                m0_p = floor(y + 0.5) * c0_pp if x_p >= 0.0 else floor(0.5 - y) * neg_c0_pp
                y = x_a / c0_pa
                m0_a = floor(y + 0.5) * c0_pa if x_a >= 0.0 else floor(0.5 - y) * neg_c0_pa
                if m0_p > c0_half_p: m0_p = c0_half_p
                elif m0_p < neg_c0_half_p: m0_p = neg_c0_half_p
                if m0_a > c0_half_a: m0_a = c0_half_a
                elif m0_a < neg_c0_half_a: m0_a = neg_c0_half_a
            else:
                m0_p = m0_a = 0.0

            valid1 = (coarse_radial <= bl1_half and neg_c1_half_p <= e1_p <= c1_half_p
                      and neg_c1_half_a <= e1_a <= c1_half_a)

            valid2 = (coarse_radial <= bl2_half and neg_c2_half_p <= e2_p <= c2_half_p
                      and neg_c2_half_a <= e2_a <= c2_half_a)
            # each flag is one of the two bool objects
            if valid0 is not lock0 or valid1 is not lock1 or valid2 is not lock2:
                lock0, lock1, lock2 = valid0, valid1, valid2
                lock_log.append((i, valid0, valid1, valid2))
            # FSM2's reading serves the FSM2 loop and the link dwell test, which
            # run only in ticks that start in a state running FSM1
            if valid2 and f1_active:
                x_p = e2_p + n2_p
                x_a = e2_a + n2_a
                y = x_p / c2_pp
                m2_p = floor(y + 0.5) * c2_pp if x_p >= 0.0 else floor(0.5 - y) * neg_c2_pp
                y = x_a / c2_pa
                m2_a = floor(y + 0.5) * c2_pa if x_a >= 0.0 else floor(0.5 - y) * neg_c2_pa
                if m2_p > c2_half_p: m2_p = c2_half_p
                elif m2_p < neg_c2_half_p: m2_p = neg_c2_half_p
                if m2_a > c2_half_a: m2_a = c2_half_a
                elif m2_a < neg_c2_half_a: m2_a = neg_c2_half_a
            else:
                m2_p = m2_a = 0.0

            # --- state machine (edges in the module docstring) ---
            # Linked first: most ticks are there, and only lock supervision acts
            # (lock_loss_frames >= 1, so a tick with every lock never leaves)
            if state == _LINKED:
                if valid0 and valid1 and valid2:
                    loss_count = 0
                else:
                    loss_count += 1
                    if loss_count >= lock_loss_frames:
                        state = _REACQUIRE
                        loss_count = dwell_count = 0
            elif state == _STABILIZE:
                # the gimbal's rate over the last tick against the measured IMU rate
                if (abs((g_p - g_last_p) / dt - imu_rate_p[i - lo]) < stab_thresh
                        and abs((g_az - g_last_a) / dt - imu_rate_a[i - lo]) < stab_thresh):
                    stab_count += 1
                else:
                    stab_count = 0
                if stab_count >= stab_ticks:
                    state = _ACQUIRE
            elif state == _ACQUIRE:
                if valid0:
                    state = _COARSE_TRACK
                    loss_count = 0
            elif state == _REACQUIRE:
                state = _ACQUIRE
            else:
                # the other tracking states: debounced lock supervision first
                if state == _COARSE_TRACK:
                    locks_ok = valid0
                elif state == _FINE_TRACK1:
                    locks_ok = valid0 and valid1
                else:  # FINE_TRACK2
                    locks_ok = valid0 and valid1 and valid2
                loss_count = 0 if locks_ok else loss_count + 1
                if loss_count >= lock_loss_frames:
                    state = _REACQUIRE
                    loss_count = dwell_count = 0
                elif state == _COARSE_TRACK:
                    if (enable_fine1 and i >= handover and valid1
                            and hypot(m0_p, m0_a) < capture_thresh):
                        state = _FINE_TRACK1
                elif state == _FINE_TRACK1:
                    if enable_fine2 and i >= handover and valid2:
                        state = _FINE_TRACK2
                elif state == _FINE_TRACK2:
                    if valid2 and hypot(m2_p, m2_a) < link_thresh:
                        dwell_count += 1
                        if dwell_count >= link_dwell_ticks:
                            state = _LINKED
                    else:
                        dwell_count = 0
            if state != flags_state:
                flags_state = state
                state_log.append((i, state))
                reset, coarse_active, f1_active, f2_active = loop_flags[state]
                # the resetting states run no loop: a reset on entry leaves the
                # integrators a reset in every tick would
                if reset:
                    vis_p = vis_a = 0.0
                    i1_p = i1_a = i2_p = i2_a = 0.0

            # --- control: one PID per loop and axis on the measured error ---
            if coarse_active:
                vis_p += m0_p * dt
                vis_a += m0_a * dt
                if c_integral:
                    if vis_p > c_bound_p: vis_p = c_bound_p
                    elif vis_p < neg_c_bound_p: vis_p = neg_c_bound_p
                    if vis_a > c_bound_a: vis_a = c_bound_a
                    elif vis_a < neg_c_bound_a: vis_a = neg_c_bound_a
                cmd_p = c_ki * vis_p
                cmd_a = c_ki * vis_a
                if c_pd:
                    cmd_p = c_kp * m0_p + cmd_p + c_kd * (m0_p - pe0_p) / dt
                    cmd_a = c_kp * m0_a + cmd_a + c_kd * (m0_a - pe0_a) / dt
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
                # FSM1's reading serves only its loop
                if valid1:
                    x_p = e1_p + n1_p
                    x_a = e1_a + n1_a
                    y = x_p / c1_pp
                    m1_p = floor(y + 0.5) * c1_pp if x_p >= 0.0 else floor(0.5 - y) * neg_c1_pp
                    y = x_a / c1_pa
                    m1_a = floor(y + 0.5) * c1_pa if x_a >= 0.0 else floor(0.5 - y) * neg_c1_pa
                    if m1_p > c1_half_p: m1_p = c1_half_p
                    elif m1_p < neg_c1_half_p: m1_p = neg_c1_half_p
                    if m1_a > c1_half_a: m1_a = c1_half_a
                    elif m1_a < neg_c1_half_a: m1_a = neg_c1_half_a
                else:
                    m1_p = m1_a = 0.0
                i1_p += m1_p * dt
                i1_a += m1_a * dt
                if f1_integral:
                    if i1_p > f1_bound: i1_p = f1_bound
                    elif i1_p < neg_f1_bound: i1_p = neg_f1_bound
                    if i1_a > f1_bound: i1_a = f1_bound
                    elif i1_a < neg_f1_bound: i1_a = neg_f1_bound
                f1_cmd_p = f1_ki * i1_p
                f1_cmd_a = f1_ki * i1_a
                if f1_pd:
                    f1_cmd_p = f1_kp * m1_p + f1_cmd_p + f1_kd * (m1_p - pe1_p) / dt
                    f1_cmd_a = f1_kp * m1_a + f1_cmd_a + f1_kd * (m1_a - pe1_a) / dt
                    if not f1_integral:
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
                f2_cmd_p = f2_ki * i2_p
                f2_cmd_a = f2_ki * i2_a
                if f2_pd:
                    f2_cmd_p = f2_kp * m2_p + f2_cmd_p + f2_kd * (m2_p - pe2_p) / dt
                    f2_cmd_a = f2_kp * m2_a + f2_cmd_a + f2_kd * (m2_a - pe2_a) / dt
                    if not f2_integral:
                        f2_cmd_p += f2_p
                        f2_cmd_a += f2_a
                    pe2_p, pe2_a = m2_p, m2_a
            else:
                f2_cmd_p = f2_cmd_a = 0.0
                pe2_p = pe2_a = 0.0

            # --- actuators ---
            g_last_p = g_p
            g_p = g_last_p + alpha_g * (g_cmd_p - g_last_p)
            dlt = g_p - g_last_p
            if dlt > g_max_delta: g_p = g_last_p + g_max_delta
            elif dlt < neg_g_max_delta: g_p = g_last_p - g_max_delta
            if g_p > g_range_p: g_p = g_range_p
            elif g_p < neg_g_range_p: g_p = neg_g_range_p

            g_last_a = g_az
            g_az = g_last_a + alpha_g * (g_cmd_a - g_last_a)
            dlt = g_az - g_last_a
            if dlt > g_max_delta: g_az = g_last_a + g_max_delta
            elif dlt < neg_g_max_delta: g_az = g_last_a - g_max_delta
            if g_az > g_range_az: g_az = g_range_az
            elif g_az < neg_g_range_az: g_az = neg_g_range_az

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
            e0_p = base_i_p - g_p
            e0_a = base_i_a - g_az
            e1_p = e0_p - f1_p
            e1_a = e0_a - f1_a
            e2_p = e1_p - f2_p
            e2_a = e1_a - f2_a

            o_gaz[i] = g_az
            o_gp[i] = g_p
            o_f1p[i] = f1_p
            o_f1a[i] = f1_a
            o_f2p[i] = f2_p
            o_f2a[i] = f2_a

        # the residual the block's ticks formed, ((base - g) - f1) - f2: the
        # same IEEE operations in the same order, elementwise
        hi = lo + len(base_p)
        res_p, res_a = out_e2p[lo:hi], out_e2a[lo:hi]
        np.subtract(base_p, out_gp[lo:hi], out=res_p)
        res_p -= out_f1p[lo:hi]
        res_p -= out_f2p[lo:hi]
        np.subtract(base_a, out_gaz[lo:hi], out=res_a)
        res_a -= out_f1a[lo:hi]
        res_a -= out_f2a[lo:hi]

    _hold(state_log, (out_state,))
    _hold(lock_log, (out_l0, out_l1, out_l2))
    # the tick times k / TICK_RATE_HZ, divided in place: dividing an integer
    # arange would hold it beside its quotient
    t_s = np.arange(n, dtype=float)
    t_s /= TICK_RATE_HZ

    return TrackingSeries(
        t_s=t_s,
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
        seed=seed,
    )
