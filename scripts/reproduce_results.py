#!/usr/bin/env python3
"""Regenerate the headline link-budget, tracking, loss, and throughput numbers.

Each block prints the simulated value next to the reference it should land on.
Runtime is a few seconds per tracking run (the simulator runs at about 70x
realtime end to end with CSV output and about 100x without, on a 2-core
x86-64 VM; see perfbench/README.md).

Usage:
    python3 scripts/reproduce_results.py [--seed 1] [--duration 120]
"""

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fsosim import (
    atmospheric_loss_db,
    default_scenario,
    link_budget,
    load_scenario,
    loss_statistics,
    loss_timeseries,
    run_apt,
    summarize,
    throughput_timeseries,
    tracking_stats,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
UR = 1e6


def budget_for(scenario, distance_m=None, radial_error_rad=0.0):
    return link_budget(
        scenario.beam, scenario.antenna, scenario.antenna, scenario.atmosphere,
        scenario.coupling, scenario.distance_m if distance_m is None else distance_m,
        radial_error_rad,
    )


def loss_for(scenario, series, t0, t1):
    return loss_timeseries(
        series.window(t0, t1), scenario.beam, scenario.antenna, scenario.antenna,
        scenario.atmosphere, scenario.coupling, scenario.distance_m,
        fixed_loss_db=scenario.fixed_loss_db,
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--duration", type=float, default=120.0)
    args = ap.parse_args()
    seed, dur = args.seed, args.duration
    warm = 10.0

    one_km = load_scenario(SCENARIOS / "1km_default.json")
    fog = load_scenario(SCENARIOS / "4km_fog.json")
    bench = load_scenario(SCENARIOS / "bench_direct.json")

    print("== static link budget ==")
    b1 = budget_for(one_km)
    print(f"1 km total at zero error   {b1.total_db:7.3f} dB   (reference ~12.8)")
    print(f"10 km path-only loss       "
          f"{budget_for(one_km, distance_m=10_000.0).diffraction_db + 2 * one_km.antenna.insertion_loss_db:7.3f}"
          " dB   (reference 8 .. 12.7)")
    atm4 = atmospheric_loss_db(fog.atmosphere, 4000.0)
    print(f"4 km fog, V = 5 km, atmosphere only {atm4:7.3f} dB   (reference ~4.2)")

    print("\n== tracking residuals, 1 km ==")
    coarse = run_apt(one_km, dur, seed, enable_fine1=False, enable_fine2=False)
    sc_ = tracking_stats(coarse, warm, dur)
    print(f"coarse-only radial mean    {sc_.radial_mean_rad * UR:6.2f} urad"
          f"  (reference 24 +- 5), per-axis stds "
          f"{sc_.pitch_std_rad * UR:.1f} / {sc_.azimuth_std_rad * UR:.1f} urad")

    delayed = run_apt(one_km, 90.0, seed, fine_after_s=30.0)
    first = tracking_stats(delayed, warm, 30.0)
    last = tracking_stats(delayed, 30.0, 90.0)
    print(f"fine stages off 30 s, on 60 s: "
          f"{first.radial_mean_rad * UR:.1f} -> {last.radial_mean_rad * UR:.2f} urad"
          "  (reference 24 -> 3)")

    full = run_apt(one_km, dur, seed)
    sf = tracking_stats(full, warm, dur)
    print(f"full-cascade radial mean   {sf.radial_mean_rad * UR:6.2f} urad"
          f"  (reference 3 +- 1), per-axis stds "
          f"{sf.pitch_std_rad * UR:.1f} / {sf.azimuth_std_rad * UR:.1f} urad")

    print("\n== link loss, 1 km ==")
    stats_full = loss_statistics(loss_for(one_km, full, warm, dur))
    print(f"full-cascade loss          {stats_full.mean:6.2f} dB mean, "
          f"{stats_full.std:.2f} dB std   (reference 13.7 / 1.4)")
    f1 = run_apt(one_km, dur, seed, enable_fine1=True, enable_fine2=False)
    stats_f1 = loss_statistics(loss_for(one_km, f1, warm, dur))
    print(f"first-fine-stage-only loss {stats_f1.mean:6.2f} dB mean   (reference 29.3 +- 2)")

    print("\n== throughput ==")
    thr = throughput_timeseries(loss_for(one_km, full, warm, warm + 100.0),
                                one_km.transceiver)
    st = summarize(thr.rate_gbps)
    print(f"1 km, 100 s                {st.mean:6.3f} Gbps mean, {st.std:.3f} std"
          "   (reference 9.16 / <= 0.5)")
    bench_run = run_apt(bench, 40.0, seed)
    thr_b = throughput_timeseries(loss_for(bench, bench_run, warm, 40.0),
                                  bench.transceiver)
    st_b = summarize(thr_b.rate_gbps)
    print(f"bench at fixed 24.0 dB     {st_b.mean:6.3f} Gbps mean"
          f"   (reference full rate {bench.transceiver.link_rate_gbps:.3f})")

    print("\n== 4 km in fog ==")
    fog_run = run_apt(fog, dur, seed)
    stats_fog = loss_statistics(loss_for(fog, fog_run, warm, dur))
    print(f"loss                       {stats_fog.mean:6.2f} dB mean, "
          f"{stats_fog.std:.2f} dB std   (reference 18 +- 2 / <= 4)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
