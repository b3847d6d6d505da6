"""Scenario configuration: JSON schema, validation, and resolved dataclasses.

A scenario file is a JSON object with human-friendly units encoded in the
key names (deg, km, mm, mrad, urad).  Everything is converted to SI (m, rad)
when the file is resolved into a `Scenario`.

`DEFAULTS` below is the schema: its nesting gives every valid key and each
key's default.  `schema_version` is required and must equal 1; every other
key is optional and, when omitted, takes its default.  A key that
`DEFAULTS` lacks, at any depth, is rejected with its dotted path, so typos
cannot silently change an experiment; so is a non-object where `DEFAULTS`
holds an object, and a `sinusoids` entry whose keys differ from those of
the default entry.  Values, bounds and cross-field rules are checked as
each group is resolved, each with its dotted path.

`DEFAULTS` is the one place a default is written, and `resolve_scenario`
the one place a value is checked: the spec types it resolves into (here
and in dynamics, geometry, optics and link) are plain data that take every
field, so one built by hand is not checked.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .dynamics import (
    MAX_NOISE_BANDWIDTH_FRACTION,
    TICK_RATE_HZ,
    AxisDisturbance,
    BeaconSpec,
    CmosSpec,
    DisturbanceProfile,
    FsmSpec,
    GimbalSpec,
    ImuSpec,
    SinusoidComponent,
)
from .geometry import GeodeticPosition, geodetic_to_ecef
from .link import TransceiverSpec
from .optics import AntennaSpec, AtmosphereModel, BeamModel, CouplingModel, _diffraction_db

SCHEMA_VERSION = 1

_DEG = math.pi / 180.0
_MRAD = 1e-3
_URAD = 1e-6

# a camera's centroid reading must stay in the float range for noise draws
# within this many standard deviations (far beyond any normal draw)
_NOISE_REACH = 40.0
# DisturbanceGenerator weighs the noise filter's impulse response over
# 20 / bandwidth seconds, once per bandwidth: 2e6 samples (about 0.6 s) at
# this floor, without bound below it
_MIN_NOISE_BANDWIDTH_HZ = 0.01


class ScenarioError(ValueError):
    """Scenario file failed validation; `field` names the offending entry."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


@dataclass(frozen=True)
class ControllerGains:
    """PID gains for one tracking loop (error rad -> command rad)."""

    kp: float
    ki: float
    kd: float


@dataclass(frozen=True)
class AptParams:
    """State-machine thresholds and timing for the acquisition chain."""

    acquisition_bias_rad: float
    fine_capture_threshold_rad: float
    link_threshold_rad: float
    link_dwell_s: float
    lock_loss_frames: int
    stats_warmup_s: float
    stabilize_rate_threshold_rad_s: float
    stabilize_dwell_s: float
    fine1_enabled: bool
    fine2_enabled: bool


@dataclass(frozen=True)
class Scenario:
    """Fully resolved, validated configuration for one simulated link."""

    name: str
    node_a: GeodeticPosition
    node_b: GeodeticPosition
    beam: BeamModel
    antenna: AntennaSpec
    atmosphere: AtmosphereModel
    coupling: CouplingModel
    transceiver: TransceiverSpec
    fixed_loss_db: float | None
    gimbal: GimbalSpec
    fsm1: FsmSpec
    fsm2: FsmSpec
    cmos0: CmosSpec
    cmos1: CmosSpec
    cmos2: CmosSpec
    imu: ImuSpec
    beacon_bl0: BeaconSpec
    beacon_bl1: BeaconSpec
    beacon_bl2: BeaconSpec
    disturbance: DisturbanceProfile
    gains_coarse: ControllerGains
    gains_fsm1: ControllerGains
    gains_fsm2: ControllerGains
    apt: AptParams
    digest: str

    @property
    def distance_m(self) -> float:
        return _distance_m(self.node_a, self.node_b)


def _distance_m(node_a: GeodeticPosition, node_b: GeodeticPosition) -> float:
    a = geodetic_to_ecef(node_a)
    b = geodetic_to_ecef(node_b)
    return math.sqrt((b.x_m - a.x_m) ** 2 + (b.y_m - a.y_m) ** 2 + (b.z_m - a.z_m) ** 2)


# ---------------------------------------------------------------------------
# defaults (calibrated; see scripts/tune_defaults.py for how they were chosen)

DEFAULTS: dict = {
    "schema_version": SCHEMA_VERSION,
    "name": "unnamed",
    "nodes": {
        "a": {"latitude_deg": 41.30000, "longitude_deg": -72.90000, "altitude_m": 40.0},
        "b": {"latitude_deg": 41.30000, "longitude_deg": -72.88806014, "altitude_m": 40.0},
    },
    "beam": {"wavelength_nm": 1550.0, "waist_radius_mm": 40.5},
    "antenna": {"aperture_diameter_mm": 90.0, "magnification": 10.0, "insertion_loss_db": 2.942},
    "atmosphere": {"visibility_km": None},
    "link": {"fixed_loss_db": None},
    "coupling": {"base_loss_db": 6.435, "rolloff_halfwidth_urad": 7.0},
    "transceiver": {
        "rated_gbps": 10.0,
        "effective_tcp_gbps": 9.27,
        "tcp_efficiency": 0.988,
        "max_tolerable_loss_db": 24.1,
    },
    "gimbal": {
        "azimuth_range_deg": 90.0,
        "pitch_range_deg": 60.0,
        "bandwidth_hz": 20.0,
        "max_rate_deg_s": 28.6479,
    },
    "fsm1": {"range_urad": 212.0, "bandwidth_hz": 300.0},
    "fsm2": {"range_urad": 212.0, "bandwidth_hz": 600.0},
    "cmos0": {
        "fov_pitch_mrad": 40.0,
        "fov_azimuth_mrad": 40.0,
        "pixels": 288,
        "frame_rate_hz": 1000.0,
        "centroid_noise_urad": 50.0,
    },
    # fine trackers sit behind the 10:1 telescope, so their sky-referred FOV
    # is the sensor FOV divided by the magnification
    "cmos1": {
        "fov_pitch_mrad": 1.0,
        "fov_azimuth_mrad": 1.3,
        "pixels": 288,
        "frame_rate_hz": 1000.0,
        "centroid_noise_urad": 3.0,
    },
    "cmos2": {
        "fov_pitch_mrad": 1.0,
        "fov_azimuth_mrad": 1.3,
        "pixels": 288,
        "frame_rate_hz": 1000.0,
        "centroid_noise_urad": 3.7,
    },
    "imu": {"rate_noise_urad_s": 30.0},
    "beacons": {
        "bl0": {"wavelength_nm": 940.0, "divergence_mrad": 35.0},
        "bl1": {"wavelength_nm": 638.0, "divergence_mrad": 6.0},
        "bl2": {"wavelength_nm": 852.0, "divergence_mrad": 6.0},
    },
    # vibration noise band sits above the gimbal lag corner, below the FSM
    # loops; its rms fixes the coarse-only residual
    "disturbance": {
        "pitch": {
            "sinusoids": [{"amplitude_urad": 50.0, "frequency_hz": 0.5, "phase_deg": 0.0}],
            "noise_rms_urad": 117.0,
            "noise_bandwidth_hz": 6.0,
        },
        "azimuth": {
            "sinusoids": [{"amplitude_urad": 50.0, "frequency_hz": 0.5, "phase_deg": 90.0}],
            "noise_rms_urad": 117.0,
            "noise_bandwidth_hz": 6.0,
        },
    },
    "control": {
        "coarse": {"kp": 0.0, "ki": 6.3, "kd": 0.0},
        "fsm1": {"kp": 0.0, "ki": 67.0, "kd": 0.0},
        "fsm2": {"kp": 0.0, "ki": 250.0, "kd": 0.0},
    },
    "apt": {
        "acquisition_bias_urad": 2000.0,
        "fine_capture_threshold_urad": 5000.0,
        "link_threshold_urad": 50.0,
        "link_dwell_s": 0.5,
        "lock_loss_frames": 50,
        "stats_warmup_s": 10.0,
        "stabilize_rate_threshold_urad_s": 5000.0,
        "stabilize_dwell_s": 0.1,
        "fine1_enabled": True,
        "fine2_enabled": True,
    },
}


# ---------------------------------------------------------------------------
# validation helpers

def _number(obj: dict, key: str, path: str, low: float | None = None,
            high: float | None = None, allow_none: bool = False) -> float | None:
    value = obj[key]
    field = f"{path}.{key}"
    if value is None:
        if allow_none:
            return None
        raise ScenarioError(field, "must be a number")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(field, f"expected a number, got {type(value).__name__}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        raise ScenarioError(field, "must be finite") from None
    if not math.isfinite(value):
        raise ScenarioError(field, "must be finite")
    if low is not None and value < low:
        raise ScenarioError(field, f"must be >= {low}")
    if high is not None and value > high:
        raise ScenarioError(field, f"must be <= {high}")
    return value


def _positive(obj: dict, key: str, path: str, scale: float = 1.0) -> float:
    """obj[key] * scale (the value in SI units), which must be positive.

    A positive value whose SI value underflows to zero is rejected too.
    """
    value = _number(obj, key, path)
    if value <= 0.0:
        raise ScenarioError(f"{path}.{key}", "must be positive")
    value *= scale
    if value == 0.0:
        raise ScenarioError(f"{path}.{key}", "is too small: it rounds to zero in SI units")
    return value


def _integer(obj: dict, key: str, path: str, low: int = 1) -> int:
    value = obj[key]
    field = f"{path}.{key}"
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(field, "expected an integer")
    if value < low:
        raise ScenarioError(field, f"must be >= {low}")
    try:
        float(value)  # the simulation does float arithmetic with it (FOV / pixels)
    except OverflowError:
        raise ScenarioError(field, "must be within the float range") from None
    return value


def _boolean(obj: dict, key: str, path: str) -> bool:
    value = obj[key]
    if not isinstance(value, bool):
        raise ScenarioError(f"{path}.{key}", "expected true or false")
    return value


def _merge_defaults(raw: dict, defaults: dict, path: str = "") -> dict:
    """Fill omitted keys from defaults, recursively, checking raw's shape.

    The nesting of defaults is the schema.  A key it lacks is unknown; where
    it holds an object raw must too; where it holds a list of objects (the
    sinusoids), every entry of raw's list must have exactly the keys of the
    first default entry.  Leaf values are copied unchecked.
    """
    merged = copy.deepcopy(defaults)
    for key, value in raw.items():
        field = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ScenarioError(field, "unknown key")
        default = defaults[key]
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ScenarioError(field, "expected an object")
            merged[key] = _merge_defaults(value, default, field)
            continue
        if isinstance(default, list):
            if not isinstance(value, list):
                raise ScenarioError(field, "expected a list")
            for i, entry in enumerate(value):
                _check_entry(entry, default[0], f"{field}[{i}]")
        merged[key] = copy.deepcopy(value)
    return merged


def _check_entry(entry, template: dict, path: str) -> None:
    if not isinstance(entry, dict):
        raise ScenarioError(path, "expected an object")
    for key in entry:
        if key not in template:
            raise ScenarioError(f"{path}.{key}", "unknown key")
    # in the template's key order, so every run names the same missing key
    for key in template:
        if key not in entry:
            raise ScenarioError(f"{path}.{key}", "missing required key")


def _node(obj: dict, path: str) -> GeodeticPosition:
    lat = _number(obj, "latitude_deg", path, low=-90.0, high=90.0)
    lon = _number(obj, "longitude_deg", path, low=-180.0, high=180.0)
    alt = _number(obj, "altitude_m", path)
    return GeodeticPosition(lat * _DEG, lon * _DEG, alt)


def _cmos(obj: dict, path: str) -> CmosSpec:
    # every camera frames once per loop tick; other rates are not modelled
    if _number(obj, "frame_rate_hz", path) != TICK_RATE_HZ:
        raise ScenarioError(f"{path}.frame_rate_hz", f"must equal the {TICK_RATE_HZ:g} Hz tick rate")
    cam = CmosSpec(
        fov_pitch_rad=_positive(obj, "fov_pitch_mrad", path, _MRAD),
        fov_azimuth_rad=_positive(obj, "fov_azimuth_mrad", path, _MRAD),
        pixels=_integer(obj, "pixels", path),
        centroid_noise_rad=_number(obj, "centroid_noise_urad", path, low=0.0) * _URAD,
    )
    # the loop reads |error + noise| / pixel pitch for an error inside the
    # half-FOV; that must be a finite float for any noise draw within
    # _NOISE_REACH standard deviations
    for fov, pitch in ((cam.fov_pitch_rad, cam.pixel_pitch_pitch_rad),
                       (cam.fov_azimuth_rad, cam.pixel_pitch_azimuth_rad)):
        if pitch == 0.0:
            raise ScenarioError(f"{path}.pixels", "makes the pixel pitch round to zero")
        if not math.isfinite((0.5 * fov + _NOISE_REACH * cam.centroid_noise_rad) / pitch):
            raise ScenarioError(f"{path}.centroid_noise_urad",
                                "puts centroid readings in pixels beyond the float range")
    return cam


def _beacon(obj: dict, path: str) -> BeaconSpec:
    return BeaconSpec(
        wavelength_m=_positive(obj, "wavelength_nm", path, 1e-9),
        divergence_full_angle_rad=_positive(obj, "divergence_mrad", path, _MRAD),
    )


def _axis_disturbance(obj: dict, path: str) -> AxisDisturbance:
    sines = []
    for i, entry in enumerate(obj["sinusoids"]):
        spath = f"{path}.sinusoids[{i}]"
        frequency_hz = _positive(entry, "frequency_hz", spath)
        # the loop samples the base motion once per tick
        if frequency_hz > 0.5 * TICK_RATE_HZ:
            raise ScenarioError(f"{spath}.frequency_hz",
                                f"must be <= {0.5 * TICK_RATE_HZ:g} Hz, the Nyquist "
                                f"frequency of the {TICK_RATE_HZ:g} Hz tick")
        sines.append(SinusoidComponent(
            amplitude_rad=_number(entry, "amplitude_urad", spath, low=0.0) * _URAD,
            frequency_hz=frequency_hz,
            phase_rad=_number(entry, "phase_deg", spath) * _DEG,
        ))
    return AxisDisturbance(
        sinusoids=tuple(sines),
        noise_rms_rad=_number(obj, "noise_rms_urad", path, low=0.0) * _URAD,
        noise_bandwidth_hz=_number(obj, "noise_bandwidth_hz", path,
                                   low=_MIN_NOISE_BANDWIDTH_HZ,
                                   high=MAX_NOISE_BANDWIDTH_FRACTION * TICK_RATE_HZ),
    )


def _gains(obj: dict, path: str) -> ControllerGains:
    return ControllerGains(
        kp=_number(obj, "kp", path, low=0.0),
        ki=_number(obj, "ki", path, low=0.0),
        kd=_number(obj, "kd", path, low=0.0),
    )


def resolve_scenario(raw: dict) -> Scenario:
    """Validate a parsed scenario object and resolve it against the defaults."""
    if not isinstance(raw, dict):
        raise ScenarioError("", "scenario must be a JSON object")
    cfg = _merge_defaults(raw, DEFAULTS)
    if "schema_version" not in raw:
        raise ScenarioError("schema_version", "missing required key")
    version = raw["schema_version"]
    # only the integer: true and 1.0 equal 1 in Python but hash differently
    if isinstance(version, bool) or not isinstance(version, int) or version != SCHEMA_VERSION:
        raise ScenarioError("schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")

    name = cfg["name"]
    if not isinstance(name, str) or not name:
        raise ScenarioError("name", "expected a non-empty string")

    nodes = cfg["nodes"]
    node_a = _node(nodes["a"], "nodes.a")
    node_b = _node(nodes["b"], "nodes.b")
    # latitudes and longitudes are bounded, so a node distance beyond the
    # float range is the larger altitude's fault
    far = f"nodes.{'a' if abs(node_a.altitude_m) > abs(node_b.altitude_m) else 'b'}.altitude_m"
    try:
        distance_m = _distance_m(node_a, node_b)
    except OverflowError:
        distance_m = math.inf
    if not math.isfinite(distance_m):
        raise ScenarioError(far, "puts the node distance beyond the float range")

    beam_obj = cfg["beam"]
    wavelength_m = _positive(beam_obj, "wavelength_nm", "beam", 1e-9)
    beam = BeamModel(wavelength_m=wavelength_m,
                     waist_radius_m=_positive(beam_obj, "waist_radius_mm", "beam", 1e-3))
    try:
        rayleigh_range_m = beam.rayleigh_range_m
    except OverflowError:  # the float power raises where a product would give inf
        rayleigh_range_m = math.inf
    if rayleigh_range_m == 0.0:
        raise ScenarioError("beam.waist_radius_mm",
                            "waist_radius_m is too small: the Rayleigh range rounds to zero")
    if not math.isfinite(rayleigh_range_m):
        raise ScenarioError("beam.waist_radius_mm",
                            "waist_radius_m is too large: the Rayleigh range overflows")

    ant_obj = cfg["antenna"]
    antenna = AntennaSpec(
        aperture_diameter_m=_positive(ant_obj, "aperture_diameter_mm", "antenna", 1e-3),
        magnification=_positive(ant_obj, "magnification", "antenna"),
        insertion_loss_db=_number(ant_obj, "insertion_loss_db", "antenna", low=0.0),
    )
    if beam.waist_radius_m > antenna.aperture_radius_m:
        raise ScenarioError("beam.waist_radius_mm", "exceeds the antenna aperture radius")

    def beyond_beam_model(distance_m: float) -> bool:
        try:
            _diffraction_db(beam, antenna, [distance_m])
        except OverflowError:
            return True
        return False

    if beyond_beam_model(distance_m):
        # the beam is at fault where it does not reach the nodes even at zero altitude
        ground_m = _distance_m(*(replace(node, altitude_m=0.0) for node in (node_a, node_b)))
        raise ScenarioError("beam.waist_radius_mm" if beyond_beam_model(ground_m) else far,
                            f"puts the scenario's node distance, {distance_m:g} m, "
                            "beyond the range of the beam model")

    atm_obj = cfg["atmosphere"]
    vis_km = _number(atm_obj, "visibility_km", "atmosphere", allow_none=True)
    if vis_km is not None and vis_km <= 0.0:
        raise ScenarioError("atmosphere.visibility_km", "must be positive or null")
    atmosphere = AtmosphereModel(
        visibility_m=math.inf if vis_km is None else vis_km * 1000.0,
        wavelength_m=wavelength_m,
    )

    link_obj = cfg["link"]
    fixed_loss_db = _number(link_obj, "fixed_loss_db", "link", allow_none=True)
    if fixed_loss_db is not None and fixed_loss_db < 0.0:
        raise ScenarioError("link.fixed_loss_db", "must be >= 0 or null")

    cpl_obj = cfg["coupling"]
    coupling = CouplingModel(
        base_coupling_loss_db=_positive(cpl_obj, "base_loss_db", "coupling"),
        rolloff_halfwidth_rad=_positive(cpl_obj, "rolloff_halfwidth_urad", "coupling", _URAD),
    )

    trx_obj = cfg["transceiver"]
    tcp_eff = _positive(trx_obj, "tcp_efficiency", "transceiver")
    if tcp_eff > 1.0:
        raise ScenarioError("transceiver.tcp_efficiency", "must be <= 1")
    rated_gbps = _positive(trx_obj, "rated_gbps", "transceiver")
    effective_tcp_gbps = _positive(trx_obj, "effective_tcp_gbps", "transceiver")
    if effective_tcp_gbps > rated_gbps:
        raise ScenarioError("transceiver.effective_tcp_gbps", "exceeds rated_gbps")
    transceiver = TransceiverSpec(
        rated_gbps=rated_gbps,
        effective_tcp_gbps=effective_tcp_gbps,
        tcp_efficiency=tcp_eff,
        max_tolerable_loss_db=_positive(trx_obj, "max_tolerable_loss_db", "transceiver"),
    )

    gim_obj = cfg["gimbal"]
    gimbal = GimbalSpec(
        azimuth_range_rad=_positive(gim_obj, "azimuth_range_deg", "gimbal", _DEG),
        pitch_range_rad=_positive(gim_obj, "pitch_range_deg", "gimbal", _DEG),
        bandwidth_hz=_positive(gim_obj, "bandwidth_hz", "gimbal"),
        max_rate_rad_s=_positive(gim_obj, "max_rate_deg_s", "gimbal", _DEG),
    )

    fsm_specs = []
    for key in ("fsm1", "fsm2"):
        fsm_obj = cfg[key]
        fsm_specs.append(FsmSpec(
            range_rad=_positive(fsm_obj, "range_urad", key, _URAD),
            bandwidth_hz=_positive(fsm_obj, "bandwidth_hz", key),
        ))

    cmos0 = _cmos(cfg["cmos0"], "cmos0")
    cmos1 = _cmos(cfg["cmos1"], "cmos1")
    cmos2 = _cmos(cfg["cmos2"], "cmos2")
    for key, fine in (("cmos1", cmos1), ("cmos2", cmos2)):
        if fine.fov_pitch_rad > cmos0.fov_pitch_rad or fine.fov_azimuth_rad > cmos0.fov_azimuth_rad:
            raise ScenarioError(f"{key}.fov_pitch_mrad", "fine FOV exceeds the coarse camera FOV")

    imu_obj = cfg["imu"]
    imu = ImuSpec(rate_noise_rad_s=_number(imu_obj, "rate_noise_urad_s", "imu", low=0.0) * _URAD)

    bcn_obj = cfg["beacons"]
    bl0 = _beacon(bcn_obj["bl0"], "beacons.bl0")
    bl1 = _beacon(bcn_obj["bl1"], "beacons.bl1")
    bl2 = _beacon(bcn_obj["bl2"], "beacons.bl2")

    dist_obj = cfg["disturbance"]
    disturbance = DisturbanceProfile(
        pitch=_axis_disturbance(dist_obj["pitch"], "disturbance.pitch"),
        azimuth=_axis_disturbance(dist_obj["azimuth"], "disturbance.azimuth"),
    )

    ctl_obj = cfg["control"]
    gains_coarse = _gains(ctl_obj["coarse"], "control.coarse")
    gains_fsm1 = _gains(ctl_obj["fsm1"], "control.fsm1")
    gains_fsm2 = _gains(ctl_obj["fsm2"], "control.fsm2")

    apt_obj = cfg["apt"]
    apt = AptParams(
        acquisition_bias_rad=_number(apt_obj, "acquisition_bias_urad", "apt", low=0.0) * _URAD,
        fine_capture_threshold_rad=_positive(apt_obj, "fine_capture_threshold_urad", "apt", _URAD),
        link_threshold_rad=_positive(apt_obj, "link_threshold_urad", "apt", _URAD),
        link_dwell_s=_positive(apt_obj, "link_dwell_s", "apt"),
        lock_loss_frames=_integer(apt_obj, "lock_loss_frames", "apt"),
        stats_warmup_s=_number(apt_obj, "stats_warmup_s", "apt", low=0.0),
        stabilize_rate_threshold_rad_s=_positive(apt_obj, "stabilize_rate_threshold_urad_s", "apt", _URAD),
        stabilize_dwell_s=_positive(apt_obj, "stabilize_dwell_s", "apt"),
        fine1_enabled=_boolean(apt_obj, "fine1_enabled", "apt"),
        fine2_enabled=_boolean(apt_obj, "fine2_enabled", "apt"),
    )
    if apt.fine2_enabled and not apt.fine1_enabled:
        raise ScenarioError("apt.fine2_enabled", "second fine stage requires the first")
    if apt.acquisition_bias_rad >= 0.5 * min(cmos0.fov_pitch_rad, cmos0.fov_azimuth_rad):
        raise ScenarioError("apt.acquisition_bias_urad", "must lie inside the coarse camera half-FOV")

    digest = hashlib.sha256(
        json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()

    return Scenario(
        name=name,
        node_a=node_a,
        node_b=node_b,
        beam=beam,
        antenna=antenna,
        atmosphere=atmosphere,
        coupling=coupling,
        transceiver=transceiver,
        fixed_loss_db=fixed_loss_db,
        gimbal=gimbal,
        fsm1=fsm_specs[0],
        fsm2=fsm_specs[1],
        cmos0=cmos0,
        cmos1=cmos1,
        cmos2=cmos2,
        imu=imu,
        beacon_bl0=bl0,
        beacon_bl1=bl1,
        beacon_bl2=bl2,
        disturbance=disturbance,
        gains_coarse=gains_coarse,
        gains_fsm1=gains_fsm1,
        gains_fsm2=gains_fsm2,
        apt=apt,
        digest=digest,
    )


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario JSON file.

    Raises ScenarioError for malformed JSON (with line/column) or any
    schema violation.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            str(path), f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return resolve_scenario(raw)


def default_scenario(name: str = "default") -> Scenario:
    """The shipped defaults as a resolved Scenario (used by tests/calibration)."""
    raw = copy.deepcopy(DEFAULTS)
    raw["name"] = name
    return resolve_scenario(raw)
