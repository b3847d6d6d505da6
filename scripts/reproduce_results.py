#!/usr/bin/env python3
"""Regenerate the headline link-budget, tracking, loss, and throughput numbers.

Each row of REFERENCE prints the simulated value, the bounds the paper's
figure allows and PASS or FAIL; the script exits 1 if any row fails, and
tests/test_acceptance.py asserts the same rows.  Loss and throughput come
from `fsosim.cli.simulate_run`, the chain behind `fsosim run`, so they are
the numbers its report.json holds.  The README's Performance section gives
the simulator's speed (about 200x realtime without CSV output, about 140x
with it).

Usage:
    python3 scripts/reproduce_results.py [--seed 1] [--duration 120]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fsosim import link_budget, load_scenario, run_apt, tracking_stats
from fsosim.cli import simulate_run

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
UR = 1e6

# The paper's figures as (low, high): a reproduced value must lie in [low, high].
REFERENCE = {
    "static_10km_db": (8.0, 12.7),  # static path loss at 10 km
    "coarse_radial_mean_urad": (19.0, 29.0),  # 24 +- 5, coarse stage only
    "coarse_pitch_std_urad": (15.0, 45.0),
    "coarse_azimuth_std_urad": (15.0, 45.0),
    "handover_radial_mean_urad": (2.0, 4.0),  # 3 +- 1, 60 s after a 30 s fine delay
    "handover_pitch_std_urad": (2.0, 5.0),
    "handover_azimuth_std_urad": (2.0, 5.0),
    "full_radial_mean_urad": (2.0, 4.0),  # 3 +- 1, full cascade
    "full_loss_mean_db": (12.7, 14.7),  # 13.7 +- 1.0
    "full_loss_std_db": (0.7, 2.1),  # 1.4 +- 0.7
    "fine1_loss_mean_db": (27.3, 31.3),  # 29.3 +- 2, first fine stage only
    "throughput_mean_gbps": (8.96, 9.36),  # 9.16 +- 0.2
    "throughput_std_gbps": (0.0, 0.5),
    "bench_full_rate_frac": (1.0, 1.0),  # a fixed 24.0 dB bench runs at full rate
    "fog_loss_mean_db": (16.0, 20.0),  # 18 +- 2, 4 km in fog
    "fog_loss_std_db": (0.0, 4.0),
    "fog_atmosphere_db": (3.7, 4.7),  # 4.2 +- 0.5
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--duration", type=float, default=120.0)
    args = ap.parse_args()
    seed, dur = args.seed, args.duration
    failed = []
    # the table is printed once every run has passed, so a refused argument
    # leaves stdout empty
    lines = [f"seed {seed}, {dur:g} s runs"]

    def row(key: str, value: float) -> None:
        low, high = REFERENCE[key]
        ok = low <= value <= high
        if not ok:
            failed.append(key)
        lines.append(f"{key:28s} {value:9.3f}  in [{low:g}, {high:g}]  {'PASS' if ok else 'FAIL'}")

    one_km = load_scenario(SCENARIOS / "1km_default.json")
    fog = load_scenario(SCENARIOS / "4km_fog.json")
    bench = load_scenario(SCENARIOS / "bench_direct.json")

    row("static_10km_db", link_budget(one_km, 10_000.0).static_db)

    coarse = simulate_run(one_km, dur, seed, enable_fine1=False, enable_fine2=False).tracking
    row("coarse_radial_mean_urad", coarse.radial_mean_rad * UR)
    row("coarse_pitch_std_urad", coarse.pitch_std_rad * UR)
    row("coarse_azimuth_std_urad", coarse.azimuth_std_rad * UR)
    handover = tracking_stats(run_apt(one_km, 90.0, seed, fine_after_s=30.0).window(30.0, 90.0))
    row("handover_radial_mean_urad", handover.radial_mean_rad * UR)
    row("handover_pitch_std_urad", handover.pitch_std_rad * UR)
    row("handover_azimuth_std_urad", handover.azimuth_std_rad * UR)

    full = simulate_run(one_km, dur, seed)
    row("full_radial_mean_urad", full.tracking.radial_mean_rad * UR)
    row("full_loss_mean_db", full.loss_stats.mean)
    row("full_loss_std_db", full.loss_stats.std)
    fine1 = simulate_run(one_km, dur, seed, enable_fine1=True, enable_fine2=False)
    row("fine1_loss_mean_db", fine1.loss_stats.mean)
    row("throughput_mean_gbps", full.throughput_stats.mean)
    row("throughput_std_gbps", full.throughput_stats.std)
    rate = simulate_run(bench, 40.0, seed).throughput.rate_gbps
    row("bench_full_rate_frac", float((rate == bench.transceiver.link_rate_gbps).mean()))

    fog_loss = simulate_run(fog, dur, seed).loss_stats
    row("fog_loss_mean_db", fog_loss.mean)
    row("fog_loss_std_db", fog_loss.std)
    row("fog_atmosphere_db", link_budget(fog, fog.distance_m).atmosphere_db)

    lines.append(f"{len(REFERENCE) - len(failed)}/{len(REFERENCE)} reference rows PASS"
                 + (f"; FAIL: {', '.join(failed)}" if failed else ""))
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    try:
        status = main()
    except ValueError as exc:  # an argument the runs cannot use; the message names it
        status = f"reproduce_results.py: {exc}"
    raise SystemExit(status)
