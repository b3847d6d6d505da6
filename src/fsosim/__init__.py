"""Simulator for gimbal-plus-mirror stabilized free-space optical links.

Subsystems: geodetic pointing geometry, Gaussian-beam and atmospheric link
budgets, actuator/sensor dynamics, the staged acquisition-and-tracking loop,
loss/throughput mapping, scenario configs and a deterministic CLI.
"""

from .apt import (
    TrackingSeries,
    TrackingStats,
    component_rng,
    run_apt,
    tracking_stats,
)
from .calibrate import CalibrationResult, MeanLossAnchor, calibrate_coupling
from .dynamics import (
    AxisDisturbance,
    BeaconSpec,
    CmosSpec,
    DisturbanceGenerator,
    DisturbanceProfile,
    FsmSpec,
    GimbalSpec,
    ImuSpec,
    SinusoidComponent,
)
from .geometry import (
    CoincidentEndpointsError,
    EcefVector,
    GeodeticPosition,
    PointingAngles,
    geodetic_to_ecef,
    pointing_solution,
)
from .link import (
    LossSeries,
    SummaryStats,
    ThroughputSeries,
    TransceiverSpec,
    downtime_fraction,
    loss_statistics,
    loss_timeseries,
    summarize,
    throughput_timeseries,
)
from .optics import (
    AntennaSpec,
    AtmosphereModel,
    BeamModel,
    CouplingModel,
    LinkBudget,
    distance_sweep,
    link_budget,
)
from .scenario import (
    AptParams,
    ControllerGains,
    Scenario,
    ScenarioError,
    default_scenario,
    load_scenario,
    resolve_scenario,
)
from .states import AptState

__version__ = "0.1.0"

__all__ = [
    "AntennaSpec",
    "AptParams",
    "AptState",
    "AtmosphereModel",
    "AxisDisturbance",
    "BeaconSpec",
    "BeamModel",
    "CalibrationResult",
    "CmosSpec",
    "CoincidentEndpointsError",
    "ControllerGains",
    "CouplingModel",
    "DisturbanceGenerator",
    "DisturbanceProfile",
    "EcefVector",
    "FsmSpec",
    "GeodeticPosition",
    "GimbalSpec",
    "ImuSpec",
    "LinkBudget",
    "LossSeries",
    "MeanLossAnchor",
    "PointingAngles",
    "Scenario",
    "ScenarioError",
    "SinusoidComponent",
    "SummaryStats",
    "ThroughputSeries",
    "TrackingSeries",
    "TrackingStats",
    "TransceiverSpec",
    "calibrate_coupling",
    "component_rng",
    "default_scenario",
    "distance_sweep",
    "downtime_fraction",
    "geodetic_to_ecef",
    "link_budget",
    "load_scenario",
    "loss_statistics",
    "loss_timeseries",
    "pointing_solution",
    "resolve_scenario",
    "run_apt",
    "summarize",
    "throughput_timeseries",
    "tracking_stats",
    "__version__",
]
