#!/usr/bin/env python3
"""Evaluate candidate default parameters against the tracking/loss targets.

The shipped defaults couple several free knobs: the disturbance noise level,
the three loop gains, the fine-sensor noise and the coupling rolloff.  This
script runs the three stage configurations (coarse-only, first-fine-only,
full cascade) for a few seeds and prints the statistics the targets pin
down, plus the coupling base loss implied by the mean-loss target.

Usage examples:
    python3 scripts/tune_defaults.py
    python3 scripts/tune_defaults.py --dist-rms 80 --ki1 60 --ki2 300
    python3 scripts/tune_defaults.py --seeds 5 --duration 80
"""

from __future__ import annotations

import argparse
import copy
import math

import numpy as np

from fsosim import link_budget
from fsosim.cli import simulate_run
from fsosim.optics import DB_PER_NEPER
from fsosim.scenario import DEFAULTS, resolve_scenario


def build_scenario(args):
    raw = copy.deepcopy(DEFAULTS)
    raw["name"] = "tuning"
    for axis in ("pitch", "azimuth"):
        raw["disturbance"][axis]["noise_rms_urad"] = args.dist_rms
        raw["disturbance"][axis]["noise_bandwidth_hz"] = args.dist_bw
    raw["control"]["coarse"]["ki"] = args.ki0
    raw["control"]["fsm1"]["ki"] = args.ki1
    raw["control"]["fsm2"]["ki"] = args.ki2
    raw["cmos0"]["centroid_noise_urad"] = args.noise0
    raw["cmos1"]["centroid_noise_urad"] = args.noise1
    raw["cmos2"]["centroid_noise_urad"] = args.noise2
    raw["coupling"]["rolloff_halfwidth_urad"] = args.theta_c
    return resolve_scenario(raw)


def stage_stats(scenario, fine1, fine2, seeds, duration):
    rows = []
    for seed in seeds:
        run = simulate_run(scenario, duration, seed, enable_fine1=fine1, enable_fine2=fine2)
        st = run.tracking
        window = run.series.window(run.t0_s, run.t1_s)
        r2 = np.hypot(window.error_pitch_rad, window.error_azimuth_rad) ** 2
        rows.append((
            st.radial_mean_rad * 1e6,
            st.pitch_std_rad * 1e6,
            st.azimuth_std_rad * 1e6,
            float(np.mean(r2)) * 1e12,
            float(np.std(r2)) * 1e12,
        ))
    return rows


def describe(label, rows):
    mean = [r[0] for r in rows]
    print(f"{label:7s} E[r] urad   : " + "  ".join(f"{m:7.2f}" for m in mean))
    print(f"{'':7s} std p/a urad: " + "  ".join(f"{r[1]:.1f}/{r[2]:.1f}" for r in rows))
    print(f"{'':7s} E[r^2] ur^2 : " + "  ".join(f"{r[3]:7.1f}" for r in rows))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dist-rms", type=float, default=DEFAULTS["disturbance"]["pitch"]["noise_rms_urad"])
    ap.add_argument("--dist-bw", type=float, default=DEFAULTS["disturbance"]["pitch"]["noise_bandwidth_hz"])
    ap.add_argument("--ki0", type=float, default=DEFAULTS["control"]["coarse"]["ki"])
    ap.add_argument("--ki1", type=float, default=DEFAULTS["control"]["fsm1"]["ki"])
    ap.add_argument("--ki2", type=float, default=DEFAULTS["control"]["fsm2"]["ki"])
    ap.add_argument("--noise0", type=float, default=DEFAULTS["cmos0"]["centroid_noise_urad"])
    ap.add_argument("--noise1", type=float, default=DEFAULTS["cmos1"]["centroid_noise_urad"])
    ap.add_argument("--noise2", type=float, default=DEFAULTS["cmos2"]["centroid_noise_urad"])
    ap.add_argument("--theta-c", type=float, default=DEFAULTS["coupling"]["rolloff_halfwidth_urad"])
    ap.add_argument("--seeds", type=int, default=3)
    ap.add_argument("--duration", type=float, default=70.0)
    args = ap.parse_args()
    if args.seeds < 1:
        raise ValueError("--seeds must be >= 1")

    scenario = build_scenario(args)
    seeds = list(range(1, args.seeds + 1))

    # every run comes before the first line, so a refused argument leaves stdout empty
    coarse = stage_stats(scenario, False, False, seeds, args.duration)
    fine1 = stage_stats(scenario, True, False, seeds, args.duration)
    full = stage_stats(scenario, True, True, seeds, args.duration)
    print(f"# dist rms {args.dist_rms} urad @ {args.dist_bw} Hz | ki {args.ki0}/{args.ki1}/{args.ki2}"
          f" | sensor noise {args.noise0}/{args.noise1}/{args.noise2} urad | theta_c {args.theta_c}")
    describe("coarse", coarse)
    describe("fine1", fine1)
    describe("full", full)

    # implied coupling parameters for the 1-km loss targets
    static_1km = link_budget(scenario, 1000.0).static_db
    theta2 = args.theta_c**2
    e_r2_full = float(np.mean([r[3] for r in full]))
    e_r2_f1 = float(np.mean([r[3] for r in fine1]))
    sd_r2_full = float(np.mean([r[4] for r in full]))
    excess_full = DB_PER_NEPER * e_r2_full / theta2
    excess_f1 = DB_PER_NEPER * e_r2_f1 / theta2
    base = 13.7 - static_1km - excess_full
    print(f"\nstatic(1 km)        = {static_1km:.3f} dB")
    print(f"mean excess full/f1 = {excess_full:.3f} / {excess_f1:.3f} dB")
    print(f"implied base loss   = {base:.3f} dB  (budget at err=0: {static_1km + base:.3f} dB, target 13.5 +- 1)")
    print(f"implied f1 loss     = {static_1km + base + excess_f1:.3f} dB  (target 29.3 +- 2)")
    print(f"loss std (full)     = {DB_PER_NEPER * sd_r2_full / theta2:.3f} dB  (target 1.4 +- 0.7)")
    ratio1 = np.mean([c[0] for c in coarse]) / np.mean([f[0] for f in fine1])
    ratio2 = np.mean([f[0] for f in fine1]) / np.mean([f[0] for f in full])
    print(f"stage mean ratios   = coarse/f1 {ratio1:.2f}, f1/full {ratio2:.2f}  (each must be >= 2)")
    worst1 = min(c[0] for c in coarse) / max(f[0] for f in fine1)
    worst2 = min(f[0] for f in fine1) / max(f[0] for f in full)
    print(f"worst-case ratios   = {worst1:.2f} / {worst2:.2f}")
    if math.isfinite(base) and base <= 0:
        print("WARNING: implied base loss is not positive")


if __name__ == "__main__":
    try:
        main()
    except ValueError as exc:  # an argument the runs cannot use; the message names it
        raise SystemExit(f"tune_defaults.py: {exc}") from None
