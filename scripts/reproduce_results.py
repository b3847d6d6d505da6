#!/usr/bin/env python3
"""Regenerate the headline link-budget, tracking, loss, and throughput numbers.

Each row of REFERENCE prints the simulated value, the bounds the paper's
figure allows and PASS or FAIL; the script exits 1 if any row fails.  The
rows come from MEASUREMENTS, one function per simulated run, and
tests/test_acceptance.py asserts the rows those same functions return.  Loss and throughput come
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
from fsosim.cli import _Parser, _seed_arg, simulate_run

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
    # throughput_mean_gbps is effective_tcp_gbps x tcp_efficiency (9.27 x
    # 0.988, two config values) whenever no tick is down, and a
    # throughput_std_gbps of 0 says only that none was: both rows pass
    # whatever the tracking does while the loss stays under 24.1 dB
    "throughput_mean_gbps": (8.96, 9.36),  # 9.16 +- 0.2
    "throughput_std_gbps": (0.0, 0.5),
    "bench_full_rate_frac": (1.0, 1.0),  # a fixed 24.0 dB bench runs at full rate
    # 4km_fog.json differs from 1km_default.json only in visibility_km, node
    # b's longitude and its name, and run_apt reads none of these: its
    # tracking series is full's, bit for bit, and its loss is full's plus a
    # constant, so fog_loss_std_db repeats full_loss_std_db up to the loss's
    # 6-digit CSV rounding.  Only the mean and atmosphere rows test the fog.
    "fog_loss_mean_db": (16.0, 20.0),  # 18 +- 2, 4 km in fog
    "fog_loss_std_db": (0.0, 4.0),
    "fog_atmosphere_db": (3.7, 4.7),  # 4.2 +- 0.5
}


def _scenario(name: str):
    return load_scenario(SCENARIOS / f"{name}.json")


# One measurement per simulated run: each takes (seed, duration_s) and returns
# the REFERENCE rows it yields.

def static(seed: int, duration_s: float) -> dict[str, float]:
    return {"static_10km_db": link_budget(_scenario("1km_default"), 10_000.0).static_db}


def coarse(seed: int, duration_s: float) -> dict[str, float]:
    s = simulate_run(_scenario("1km_default"), duration_s, seed,
                     enable_fine1=False, enable_fine2=False).tracking
    return {"coarse_radial_mean_urad": s.radial_mean_rad * UR,
            "coarse_pitch_std_urad": s.pitch_std_rad * UR,
            "coarse_azimuth_std_urad": s.azimuth_std_rad * UR}


def handover(seed: int, duration_s: float) -> dict[str, float]:
    # a fixed 90 s run whose fine stages engage at 30 s, whatever duration_s
    series = run_apt(_scenario("1km_default"), 90.0, seed, fine_after_s=30.0)
    s = tracking_stats(series.window(30.0, 90.0))
    return {"handover_radial_mean_urad": s.radial_mean_rad * UR,
            "handover_pitch_std_urad": s.pitch_std_rad * UR,
            "handover_azimuth_std_urad": s.azimuth_std_rad * UR}


def full(seed: int, duration_s: float) -> dict[str, float]:
    run = simulate_run(_scenario("1km_default"), duration_s, seed)
    return {"full_radial_mean_urad": run.tracking.radial_mean_rad * UR,
            "full_loss_mean_db": run.loss_stats.mean,
            "full_loss_std_db": run.loss_stats.std,
            "throughput_mean_gbps": run.throughput_stats.mean,
            "throughput_std_gbps": run.throughput_stats.std}


def fine1(seed: int, duration_s: float) -> dict[str, float]:
    run = simulate_run(_scenario("1km_default"), duration_s, seed,
                       enable_fine1=True, enable_fine2=False)
    return {"fine1_loss_mean_db": run.loss_stats.mean}


def bench(seed: int, duration_s: float) -> dict[str, float]:
    # a fixed 40 s run, whatever duration_s
    scenario = _scenario("bench_direct")
    rate = simulate_run(scenario, 40.0, seed).throughput.rate_gbps
    return {"bench_full_rate_frac": float((rate == scenario.transceiver.link_rate_gbps).mean())}


def fog(seed: int, duration_s: float) -> dict[str, float]:
    scenario = _scenario("4km_fog")
    loss = simulate_run(scenario, duration_s, seed).loss_stats
    return {"fog_loss_mean_db": loss.mean,
            "fog_loss_std_db": loss.std,
            "fog_atmosphere_db": link_budget(scenario, scenario.distance_m).atmosphere_db}


MEASUREMENTS = {m.__name__: m for m in (static, coarse, handover, full, fine1, bench, fog)}


def main() -> int:
    # a usage error exits 1, as in fsosim; exit 2 is its nonconvergence code
    ap = _Parser(prog="reproduce_results.py", description=__doc__)
    # the seed is parsed after argparse, so that a refused one is one stderr line
    ap.add_argument("--seed", default="1", help="64-bit run seed, in ASCII digits")
    ap.add_argument("--duration", type=float, default=120.0)
    args = ap.parse_args()
    try:
        seed = _seed_arg(args.seed)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"--seed {exc}") from None
    rows = {}
    for measure in MEASUREMENTS.values():
        rows.update(measure(seed, args.duration))
    # the table is printed once every run has passed, so a refused argument
    # leaves stdout empty
    lines = [f"seed {seed}, {args.duration:g} s runs"]
    failed = []
    for key, (low, high) in REFERENCE.items():
        ok = low <= rows[key] <= high
        if not ok:
            failed.append(key)
        lines.append(f"{key:28s} {rows[key]:9.3f}  in [{low:g}, {high:g}]  {'PASS' if ok else 'FAIL'}")
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
