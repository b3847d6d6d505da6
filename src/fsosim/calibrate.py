"""Fit coupling and insertion parameters so mean link budgets hit anchors.

The coupling rolloff halfwidth and base loss are two free parameters of the
fiber-coupling model.  Given target mean total losses for known per-axis
jitter levels at known distances, plus a target static total at a reference
distance, this module solves:

  1. per-terminal insertion loss from the static anchor (closed form),
  2. the rolloff halfwidth by bisection on the mean-loss difference between
     the smallest-jitter and largest-jitter anchors (Monte Carlo mean over a
     two-axis Gaussian jitter distribution),
  3. the base loss from the smallest-jitter anchor (one fixed-point pass;
     the model is additive in base).

A solution counts as converged when every anchor is reproduced within the
tolerance.  An over-determined or contradictory anchor set simply leaves
residuals above tolerance; that is reported, never raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import optics
from .apt import _check_seed
from .scenario import Scenario

DEFAULT_TOLERANCE_DB = 0.2
# Monte Carlo draws of the two-axis jitter per mean-loss evaluation
SAMPLES = 200_000
_BISECT_LO_RAD = 1e-7
_BISECT_HI_RAD = 1e-2
_BISECT_ITERATIONS = 200


@dataclass(frozen=True)
class MeanLossAnchor:
    """Target mean total loss for Gaussian per-axis jitter at one distance."""

    sigma_rad: float
    distance_m: float
    mean_loss_db: float


@dataclass(frozen=True)
class CalibrationResult:
    converged: bool
    rolloff_halfwidth_rad: float
    base_coupling_loss_db: float
    insertion_loss_db_per_terminal: float
    residuals_db: dict[str, float]

    def as_dict(self) -> dict:
        return {
            "converged": self.converged,
            "rolloff_halfwidth_urad": self.rolloff_halfwidth_rad * 1e6,
            "base_coupling_loss_db": self.base_coupling_loss_db,
            "insertion_loss_db_per_terminal": self.insertion_loss_db_per_terminal,
            "residuals_db": dict(self.residuals_db),
            "samples": SAMPLES,
        }


def _finite_db(compute, message: str) -> float:
    """compute(), a loss in dB; ValueError(message) if it overflows."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(message)
    return value


def calibrate_coupling(
    scenario: Scenario,
    anchors: list[MeanLossAnchor],
    static_total_db: float | None = None,
    static_distance_m: float | None = None,
    seed: int = 0,
    tolerance_db: float = DEFAULT_TOLERANCE_DB,
) -> CalibrationResult:
    """Solve (rolloff halfwidth, base loss, insertion loss) against anchors.

    Parameters without an anchor to determine them keep the scenario values;
    residuals are evaluated for every anchor provided.  `seed`, an integer
    in [0, 2**64), seeds the Monte Carlo draws.

    Raises ValueError naming `seed` when it is not an integer in [0, 2**64);
    naming `tolerance_db` unless it is >= 0 and finite (a NaN tolerance
    would pass any residual); when only one of static_total_db and
    static_distance_m is given; and, naming the anchor and its anchors-file
    key, for an anchor whose distance or jitter puts a loss beyond the
    float range.
    """
    _check_seed(seed)
    if not (tolerance_db >= 0.0 and math.isfinite(tolerance_db)):
        raise ValueError("tolerance_db must be >= 0 and finite")
    if (static_total_db is None) != (static_distance_m is None):
        raise ValueError("static_total_db and static_distance_m go together")

    residuals: dict[str, float] = {}
    converged = True

    def static_db(insertion_db: float, distance_m: float) -> float:
        # a Python float: numpy floats warn when the residuals below overflow
        antenna = replace(scenario.antenna, insertion_loss_db=insertion_db)
        return float(optics.link_budget(replace(scenario, antenna=antenna), distance_m).static_db)

    # 1. insertion loss from the static anchor
    insertion = scenario.antenna.insertion_loss_db
    if static_total_db is not None:
        bare = _finite_db(
            lambda: static_db(0.0, static_distance_m),
            f"static_distance_m: {static_distance_m:g} m is beyond the range of the beam model")
        insertion = 0.5 * (static_total_db - bare)
        if insertion < 0.0:
            insertion = 0.0
            converged = False
        residuals["static_total_db"] = static_db(insertion, static_distance_m) - static_total_db

    # fixed Monte Carlo unit draws, shared by every anchor evaluation so the
    # bisection objective is smooth and the result is seed-deterministic
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    unit_r2 = rng.standard_normal(SAMPLES) ** 2 + rng.standard_normal(SAMPLES) ** 2
    mean_unit_r2 = float(unit_r2.mean())

    def mean_excess_db(sigma_rad: float, halfwidth_rad: float) -> float:
        return optics.DB_PER_NEPER * sigma_rad**2 * mean_unit_r2 / halfwidth_rad**2

    # each anchor's static total, and its jitter excess at the narrowest
    # halfwidth the solution can take (the excess falls as it widens), must
    # be finite
    halfwidth = scenario.coupling.rolloff_halfwidth_rad
    narrowest = min(halfwidth, _BISECT_LO_RAD)
    statics = {}
    for i, anchor in enumerate(anchors):
        statics[anchor] = _finite_db(
            lambda: static_db(insertion, anchor.distance_m),
            f"anchor {i}: distance_m {anchor.distance_m:g} is beyond the range of the beam model")
        _finite_db(lambda: mean_excess_db(anchor.sigma_rad, narrowest),
                   f"anchor {i}: sigma_urad {anchor.sigma_rad * 1e6:g} puts the mean jitter "
                   "loss beyond the float range")

    # 2. rolloff halfwidth by bisection on the widest jitter spread
    base = scenario.coupling.base_coupling_loss_db
    if anchors:
        lo_anchor = min(anchors, key=lambda a: a.sigma_rad)
        hi_anchor = max(anchors, key=lambda a: a.sigma_rad)
        if hi_anchor.sigma_rad > lo_anchor.sigma_rad:
            target_gap = (
                (hi_anchor.mean_loss_db - lo_anchor.mean_loss_db)
                - (statics[hi_anchor] - statics[lo_anchor])
            )
            if target_gap > 0.0:
                lo, hi = _BISECT_LO_RAD, _BISECT_HI_RAD
                for _ in range(_BISECT_ITERATIONS):
                    mid = 0.5 * (lo + hi)
                    gap = mean_excess_db(hi_anchor.sigma_rad, mid) - mean_excess_db(
                        lo_anchor.sigma_rad, mid
                    )
                    if gap > target_gap:
                        lo = mid  # too much rolloff; widen
                    else:
                        hi = mid
                halfwidth = 0.5 * (lo + hi)
            else:
                converged = False  # larger jitter cannot mean lower loss

        # 3. base loss from the smallest-jitter anchor
        base = (
            lo_anchor.mean_loss_db
            - statics[lo_anchor]
            - mean_excess_db(lo_anchor.sigma_rad, halfwidth)
        )
        if base <= 0.0:
            base = 1e-6
            converged = False

    for i, anchor in enumerate(anchors):
        achieved = (
            statics[anchor]
            + base
            + mean_excess_db(anchor.sigma_rad, halfwidth)
        )
        residual = achieved - anchor.mean_loss_db
        if not math.isfinite(residual):
            raise ValueError(f"anchor {i}: mean_loss_db {anchor.mean_loss_db:g} leaves a "
                             "residual beyond the float range")
        residuals[f"anchor_{i}_sigma_{anchor.sigma_rad * 1e6:g}_urad"] = residual

    if any(abs(r) > tolerance_db for r in residuals.values()):
        converged = False

    return CalibrationResult(
        converged=converged,
        rolloff_halfwidth_rad=halfwidth,
        base_coupling_loss_db=base,
        insertion_loss_db_per_terminal=insertion,
        residuals_db=residuals,
    )


def _finite_number(value, field: str) -> float:
    # a JSON number: bools are ints to Python, and float() would parse "nan"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{field}: expected a number, got {type(value).__name__}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{field}: must be finite") from None
    if not math.isfinite(value):
        raise ValueError(f"{field}: must be finite")
    return value


def parse_anchor_file(payload: dict) -> tuple[list[MeanLossAnchor], float | None, float | None]:
    """Decode the anchors JSON document.

    Schema: {"mean_loss_anchors": [{"sigma_urad", "distance_m", "mean_loss_db"}...],
             "static_total_db": number | null | absent,
             "static_distance_m": number | null | absent}

    Every number must be finite, `sigma_urad` and `static_distance_m` >= 0
    and `distance_m` positive; any other document raises ValueError naming
    the entry and key at fault.  This is where an anchor's values are
    checked: a `MeanLossAnchor` built by hand is not.
    """
    if not isinstance(payload, dict):
        raise ValueError("anchors file: expected a JSON object")
    known = {"mean_loss_anchors", "static_total_db", "static_distance_m"}
    unknown = set(payload) - known
    if unknown:
        raise ValueError(f"unknown anchor keys: {sorted(unknown)}")
    entries = payload.get("mean_loss_anchors", [])
    if not isinstance(entries, list):
        raise ValueError("mean_loss_anchors: expected a list")
    anchors = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"anchor {i}: expected an object")
        extra = set(entry) - {"sigma_urad", "distance_m", "mean_loss_db"}
        if extra:
            raise ValueError(f"anchor {i}: unknown keys {sorted(extra)}")
        values = {}
        for key in ("sigma_urad", "distance_m", "mean_loss_db"):
            if key not in entry:
                raise ValueError(f"anchor {i}: missing key {key!r}")
            values[key] = _finite_number(entry[key], f"anchor {i}: {key}")
        if values["sigma_urad"] < 0.0:
            raise ValueError(f"anchor {i}: sigma_urad must be >= 0")
        if values["distance_m"] <= 0.0:
            raise ValueError(f"anchor {i}: distance_m must be positive")
        anchors.append(MeanLossAnchor(
            sigma_rad=values["sigma_urad"] * 1e-6,
            distance_m=values["distance_m"],
            mean_loss_db=values["mean_loss_db"],
        ))
    static_total, static_distance = (
        None if payload.get(key) is None else _finite_number(payload[key], key)
        for key in ("static_total_db", "static_distance_m")
    )
    if static_distance is not None and static_distance < 0.0:
        raise ValueError("static_distance_m must be >= 0")
    return anchors, static_total, static_distance
